"""Command-line interface.

Subcommands: simulate, fit, measure, mir, verify. Exit status 0 on
success, 2 for configuration/parse problems, 3 for numerical refusals and
failures, 4 when verification finds a broken identity. Error lines on
stderr start with a stable E_* code.
"""

import argparse
import contextlib
import sys

from .errors import (
    DataError,
    DimensionError,
    DomainError,
    EstimationError,
    NumericalError,
    ParseError,
)
from .fileio import (
    ResultWriter,
    TimeseriesWriter,
    load_model,
    load_timeseries,
    save_model,
    save_result,
)
from .infotheory import information_rates
from .measures import _MEASURES, MeasureKind
from .oracles import run_verification
from .spectral import DEFAULT_N_POINTS, FrequencyGrid, _block_size, _draw_kinds, _spectral_blocks
from .var_model import _simulation_chunks, estimate, select_order, validate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as exc:
        return _fail("E_PARSE", exc, EXIT_CONFIG)
    except DataError as exc:
        return _fail("E_DATA", exc, EXIT_CONFIG)
    except (DomainError, DimensionError) as exc:
        return _fail("E_CONFIG", exc, EXIT_CONFIG)
    except (NumericalError, EstimationError) as exc:
        return _fail("E_NUMERIC", exc, EXIT_NUMERIC)
    except OSError as exc:
        return _fail("E_IO", exc, EXIT_CONFIG)


def _fail(code: str, exc: Exception, status: int) -> int:
    print(f"{code}: {exc}", file=sys.stderr)
    return status


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="varconn", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="draw a realization of a model")
    p_sim.add_argument("--model", required=True, help="model document (JSON)")
    p_sim.add_argument("--n", type=int, required=True, help="samples to keep")
    p_sim.add_argument("--burn-in", type=int, default=1000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True, help="output CSV")
    p_sim.add_argument("--innovations-out", help="also write the innovation draws")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_fit = sub.add_parser("fit", help="estimate a model from CSV data")
    p_fit.add_argument("--data", required=True, help="input CSV")
    p_fit.add_argument("--layout", default="rows_are_samples", help="rows_are_samples or rows_are_channels")
    group = p_fit.add_mutually_exclusive_group(required=True)
    group.add_argument("--order", type=int, help="fixed lag order")
    group.add_argument("--max-order", type=int, help="select the order in 1..max by criterion")
    p_fit.add_argument("--criterion", default="bic", choices=("aic", "bic"))
    p_fit.add_argument("--name", help="metadata name for the fitted model")
    p_fit.add_argument("--out", required=True, help="output model document")
    p_fit.set_defaults(handler=_cmd_fit)

    p_measure = sub.add_parser("measure", help="evaluate connectivity measures")
    p_measure.add_argument("--model", required=True)
    p_measure.add_argument("--measures", default="coh,pdc,gpdc,ipdc,dtf,dc,idtf", help="comma-separated list")
    p_measure.add_argument("--nfreq", type=int, default=DEFAULT_N_POINTS)
    p_measure.add_argument("--mag-sq", action="store_true", help="include squared magnitudes")
    p_measure.add_argument("--fs", type=float, help="sample rate to annotate frequencies in Hz")
    p_measure.add_argument("--out", help="output JSON (stdout if omitted)")
    p_measure.set_defaults(handler=_cmd_measure)

    p_mir = sub.add_parser("mir", help="integrate measures into information rates")
    p_mir.add_argument("--model", required=True)
    p_mir.add_argument("--kinds", default="ipdc,idtf", help="comma-separated: ipdc, idtf, coh")
    p_mir.add_argument("--nfreq", type=int, default=DEFAULT_N_POINTS)
    p_mir.add_argument("--units", default="nats", choices=("nats", "bits"))
    p_mir.add_argument("--out", help="output JSON (stdout if omitted)")
    p_mir.set_defaults(handler=_cmd_mir)

    p_verify = sub.add_parser("verify", help="run the self-verification suite")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--models", type=int, default=50)
    p_verify.add_argument("--nfreq", type=int, default=128)
    p_verify.set_defaults(handler=_cmd_verify)

    return parser


def _cmd_simulate(args) -> int:
    """Walk the draw once, writing each chunk to the CSVs; a refusal met once a file is open removes the files."""
    model = load_model(args.model)
    chunks = _simulation_chunks(model, args.n, args.burn_in, args.seed)
    paths = [args.out] + ([args.innovations_out] if args.innovations_out else [])
    with contextlib.ExitStack() as stack:
        writers = [stack.enter_context(TimeseriesWriter(path, model.K)) for path in paths]
        if len(writers) == 2 and writers[0].shares_file(writers[1]):
            raise DomainError("--out and --innovations-out name the same file")
        for pair in chunks:
            for writer, rows in zip(writers, pair):
                writer.add(rows)
    print(f"wrote {writers[0].path} ({args.n} samples x {model.K} channels)")
    if args.innovations_out:
        print(f"wrote {writers[1].path}")
    return EXIT_OK


def _cmd_fit(args) -> int:
    data = load_timeseries(args.data, layout=args.layout)
    if args.order is not None:
        order = args.order
    else:
        order = select_order(data, args.max_order, criterion=args.criterion)
        print(f"selected order {order} by {args.criterion}")
    model = estimate(data, order)
    report = validate(model)
    out = save_model(model, args.out, name=args.name)
    print(f"wrote {out} (K={model.K}, p={model.p}, spectral radius {report.spectral_radius:.4f})")
    if not report.stable:
        print("warning: fitted model is unstable; spectra and measures will be refused", file=sys.stderr)
    return EXIT_OK


def _parse_kinds(text: str, what: str) -> list[str]:
    kinds = [item.strip().lower() for item in text.split(",") if item.strip()]
    if not kinds:
        raise DomainError(f"no {what} requested")
    return kinds


def _cmd_measure(args) -> int:
    """Walk the grid once, spilling each block's measures; arguments are refused before the walk, and the document rendered after it."""
    model = load_model(args.model)
    kinds = list(dict.fromkeys(MeasureKind(name) for name in _parse_kinds(args.measures, "measure")))
    grid = FrequencyGrid(args.nfreq)
    with ResultWriter(grid, kinds, args.mag_sq, args.fs) as writer:
        blocks = _spectral_blocks(model, grid, _block_size(model.K))
        _draw_kinds(blocks, kinds, lambda spectra, kind: writer.add(kind, _MEASURES[kind](spectra).values))
        return _emit(writer.chunks(), args.out)


def _cmd_mir(args) -> int:
    model = load_model(args.model)
    grid = FrequencyGrid(args.nfreq)
    mirs = information_rates(model, grid, _parse_kinds(args.kinds, "rate kind"))
    return _emit(ResultWriter(grid).chunks(mirs, f"{args.units}_per_sample"), args.out)  # nats or bits


def _cmd_verify(args) -> int:
    report = run_verification(seed=args.seed, n_models=args.models, n_freq=args.nfreq)
    for line in report.lines():
        print(line)
    if report.passed:
        print("verification passed")
        return EXIT_OK
    print("E_VERIFY: at least one identity check failed", file=sys.stderr)
    return EXIT_VERIFY


def _emit(chunks, out: str | None) -> int:
    """Write a result document's bytes to `out`, or to stdout (decoded where stdout takes no bytes)."""
    if out is not None:
        print(f"wrote {save_result(chunks, out)}")
        return EXIT_OK
    stream = getattr(sys.stdout, "buffer", None)
    if stream is None:
        sys.stdout.writelines(chunk.decode("ascii") for chunk in chunks)
    else:
        sys.stdout.flush()
        stream.writelines(chunks)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
