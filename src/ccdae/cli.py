"""Command-line surface: compare, bench, ncd-demo, train-ngram, describe.

Exit codes: 0 success, 1 runtime failure, 2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import backends, baselines, bench, descgen, pipeline

__all__ = ["main", "build_parser"]

LN2 = math.log(2.0)

#: Most points a --lambda grid may have. The config keeps the grid as a tuple
#: of floats, about 40 MB at this count; a larger count is refused as a usage
#: error instead of failing to allocate.
MAX_LAMBDA_POINTS = 10**6

#: Largest value a count flag (--samples, --max-tokens, --atoms, ...) may take.
#: Memory grows with the count: on the bundled n-gram model, compare with 10^5
#: samples of 20 tokens peaks at about 160 MB. A larger count is refused as a
#: usage error before anything is allocated.
MAX_COUNT = 10**5

#: Largest image side ncd-demo's --dims may give. The disk pattern's index grid
#: alone takes 16 * side**2 bytes (64 MiB here); a run at this side peaks at
#: about 165 MB and takes about 2 s. A larger side is refused as a usage error
#: before anything is allocated.
MAX_SIDE = 2048


class UsageError(ValueError):
    """Bad flags or unusable configuration; maps to exit code 2."""


def _parse_lambda_grid(text: str) -> tuple[float, ...]:
    """Grid syntax start:stop:count, e.g. 0:100:200."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"lambda grid must be start:stop:count, got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"bad lambda grid {text!r}: {exc}") from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise UsageError(f"lambda grid start and stop must be finite, got {text!r}")
    if count < 2 or stop <= start or start < 0:
        raise UsageError("lambda grid needs start >= 0, stop > start, count >= 2")
    if count > MAX_LAMBDA_POINTS:
        raise UsageError(
            f"lambda grid count must be <= {MAX_LAMBDA_POINTS}, got {count}")
    return tuple(np.linspace(start, stop, count))


def _integer(text: str, low: int) -> int:
    """An integer >= ``low``, or the argparse error that names the flag."""
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from exc
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def _seed(text: str) -> int:
    """An argparse type for --seed: a non-negative integer."""
    return _integer(text, 0)


def _count(text: str) -> int:
    """An argparse type for count flags: an integer in [1, MAX_COUNT]."""
    value = _integer(text, 1)
    if value > MAX_COUNT:
        raise argparse.ArgumentTypeError(f"must be <= {MAX_COUNT}, got {value}")
    return value


def _temperature(text: str) -> float:
    """An argparse type for --temperature: a finite float > 0."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from exc
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return value


def _parse_cmax(text: str) -> float | None:
    if text == "auto":
        return None
    try:
        value = float(text)
    except ValueError as exc:
        raise UsageError(f"--cmax must be 'auto' or a number, got {text!r}") from exc
    if not (math.isfinite(value) and value > 0):
        raise UsageError(f"--cmax must be finite and positive, got {text!r}")
    return value


def _resolve_input(arg: str) -> str:
    """File arguments are read as UTF-8 text; anything else is a literal."""
    if os.path.isfile(arg):
        with open(arg, encoding="utf-8") as fh:
            return fh.read().strip()
    return arg


def _make_backend(args) -> object:
    endpoint = args.endpoint or os.environ.get("CCDAE_ENDPOINT")
    sources = {"ngram": args.model, "remote": endpoint, "table": args.fixture}
    src = sources.get(args.backend)
    if not src:
        flag = {"ngram": "--model", "remote": "--endpoint (or CCDAE_ENDPOINT)",
                "table": "--fixture"}[args.backend]
        raise UsageError(f"backend {args.backend!r} requires {flag}")
    if args.backend == "remote":
        return backends.RemoteBackend(src)
    if not os.path.isfile(src):
        raise UsageError(f"backend source not found: {src}")
    if args.backend == "ngram":
        return backends.NGramBackend(backends.NGramModel.load(src))
    return backends.TableBackend.load(src)


def _unit_factor(args) -> float:
    return 1.0 / LN2 if args.units == "bits" else 1.0


def _write_text(path: str | None, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_compare(args) -> int:
    backend = _make_backend(args)
    config = pipeline.CompareConfig(
        samples_per_input=args.samples,
        max_tokens=args.max_tokens,
        temperature=args.temperature,
        seed=args.seed,
        pcode_mode={"proposal": "proposal_mix", "lm": "lm_code"}[args.pcode],
        lambda_grid=None if args.lambda_grid is None
        else _parse_lambda_grid(args.lambda_grid),
        c_max=_parse_cmax(args.cmax),
        prompt=args.prompt,
    )
    report = pipeline.compare(
        _resolve_input(args.a), _resolve_input(args.b), backend, config
    )
    curve = report.curve.scaled(_unit_factor(args))
    out = args.out or "compare_curve.csv"
    _write_text(out, curve.to_csv())
    report_path = (out[:-4] if out.endswith(".csv") else out) + ".report.json"
    doc = report.to_dict()
    doc.update(units=args.units, curve=curve.report(), auc=curve.auc)
    _write_text(report_path, json.dumps(doc, indent=2, sort_keys=True))
    print(f"auc {curve.auc:.6f}")
    return 0


def _cmd_bench(args) -> int:
    backend = _make_backend(args)
    score = {"auc": "auc", "dc": "d_at_c", "traj": "traj",
             "condlik": "cond_lik"}[args.score]
    if args.capacity is not None:
        if args.score != "dc":
            raise UsageError("--capacity applies only to --score dc")
        if not (math.isfinite(args.capacity) and args.capacity >= 0):
            raise UsageError("--capacity must be finite and >= 0")
    config_kwargs = dict(seed=args.seed)
    if args.samples is not None:
        config_kwargs["samples_per_input"] = args.samples
    if args.max_tokens is not None:
        config_kwargs["max_tokens"] = args.max_tokens
    if args.kind == "pairs":
        load, run = bench.load_pairs, bench.run_similarity_bench
    else:
        config_kwargs = {**bench.CHOICE_DEFAULTS, **config_kwargs}
        load, run = bench.load_choices, bench.run_choice_bench
    loaded = load(args.data)
    try:
        report = run(loaded.records, backend,
                     config=pipeline.CompareConfig(**config_kwargs), score=score,
                     capacity=args.capacity, backend_id=args.backend)
    except bench.BenchError as exc:
        raise bench.BenchError(f"{args.data}: {exc}") from exc
    print(f"{report.metric_name} {report.metric:.4f}")
    for lineno, reason in loaded.skipped:
        print(f"skipped line {lineno}: {reason}", file=sys.stderr)
    if args.out:
        _write_text(args.out, report.to_json())
        csv_path = (args.out[:-5] if args.out.endswith(".json") else args.out) + ".csv"
        _write_text(csv_path, report.to_csv())
    return 0


def _cmd_ncd_demo(args) -> int:
    if not 0.0 < args.p <= 0.5:
        raise UsageError("--p must be in (0, 0.5]")
    try:
        sides = [int(v) for v in args.dims.split(",") if v.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --dims {args.dims!r}: {exc}") from exc
    if not sides:
        raise UsageError("--dims must list at least one side length")
    if not all(1 <= s <= MAX_SIDE for s in sides):
        raise UsageError(f"--dims side lengths must be in [1, {MAX_SIDE}], "
                         f"got {args.dims!r}")
    points = baselines.noise_experiment(
        p=args.p, dimensions=[s * s for s in sides], seed=args.seed,
        use_joint_bound=args.joint_bound,
    )
    _write_text(args.out, baselines.noise_experiment_csv(points))
    last = points[-1]
    print(f"D={last.dimension} measured {last.ncd:.4f} predicted {last.predicted:.4f}")
    return 0


def _cmd_train_ngram(args) -> int:
    if not os.path.exists(args.corpus):
        raise UsageError(f"corpus not found: {args.corpus}")
    with open(args.corpus, encoding="utf-8") as fh:
        corpus = fh.read()
    try:
        model = backends.train_ngram(corpus, order=args.order,
                                     smoothing_alpha=args.alpha)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    out = args.out or "ngram_model.json"
    model.save(out)
    print(f"trained order-{model.order} model over {model.vocab_size} symbols -> {out}")
    return 0


def _cmd_describe(args) -> int:
    backend = _make_backend(args)
    _, _, rows = descgen.describe_pair(
        backend, _resolve_input(args.a), _resolve_input(args.b), atoms=args.atoms,
        beam_width=args.beam, max_atoms=args.max_atoms, max_tokens=args.max_tokens,
        seed=args.seed,
    )
    factor = _unit_factor(args)
    for row in rows:
        for key in ("capacity", "loss_x1", "loss_x2", "loss_common"):
            row[key] = row[key] * factor
    _write_text(args.out, descgen.curve_csv(rows))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccdae",
        description="Conceptual similarity from capacity-constrained "
                    "description distributions.",
    )
    parser.add_argument("--backend", choices=("ngram", "remote", "table"),
                        default="ngram")
    parser.add_argument("--model", help="n-gram model file")
    parser.add_argument("--endpoint", help="remote server base URL")
    parser.add_argument("--fixture", help="table-backend fixture file")
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--units", choices=("nats", "bits"), default="nats")
    parser.add_argument("--out", help="output file (default per command)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compare", help="distance curve and AUC for a pair")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--samples", type=_count, default=20)
    p.add_argument("--max-tokens", type=_count, default=20)
    p.add_argument("--temperature", type=_temperature, default=1.0)
    p.add_argument("--lambda", dest="lambda_grid")  # default: default_lambda_grid
    p.add_argument("--cmax", default="auto")
    p.add_argument("--pcode", choices=("proposal", "lm"), default="proposal")
    p.add_argument("--prompt")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("bench", help="similarity or choice benchmark")
    p.add_argument("kind", choices=("pairs", "choice"))
    p.add_argument("data")
    p.add_argument("--score", choices=("auc", "dc", "traj", "condlik"),
                   default="auc")
    p.add_argument("--capacity", type=float)
    p.add_argument("--samples", type=_count)
    p.add_argument("--max-tokens", type=_count)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("ncd-demo", help="compression-distance noise experiment")
    p.add_argument("--p", type=float, default=0.1)
    p.add_argument("--dims", default="64,128,256,512",
                   help="comma-separated image side lengths")
    p.add_argument("--joint-bound", action="store_true",
                   help="substitute the joint-size lower bound for Z(xy)")
    p.set_defaults(func=_cmd_ncd_demo)

    p = sub.add_parser("train-ngram", help="count a character n-gram model")
    p.add_argument("corpus")
    p.add_argument("--order", type=int, default=5)
    p.add_argument("--alpha", type=float, default=0.01)
    p.set_defaults(func=_cmd_train_ngram)

    p = sub.add_parser("describe", help="best single description per capacity")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--atoms", type=_count, default=40)
    p.add_argument("--beam", type=_count, default=8)
    p.add_argument("--max-atoms", type=_count, default=10)
    p.add_argument("--max-tokens", type=_count, default=40)
    p.set_defaults(func=_cmd_describe)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (backends.BackendError, bench.BenchError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
