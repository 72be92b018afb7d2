"""Command-line surface: build, verify, thin, density, gap, oracle.

Reports are JSON with a fixed key order; density data can also be written
as CSV (``n,count,ratio``) for plotting.  Set files use the shared format:
one strictly increasing positive integer per line, '#' comments allowed.

Exit codes: 0 success / verified, 1 a verification or coverage check came
back negative, 2 invalid input, unsatisfiable parameters, an unwritable output
path or too little memory; main() maps each exception to its code in one table.
"""

from __future__ import annotations

import argparse
import sys

# Handlers import builder, greedy, oracle and json where they call them; gap and --version load none.
from . import __version__
from .cover import gap_detector, verify_cover
from .errors import AddcompError, CoverFailed, NoCover, PreconditionViolated
from .natset import (
    NatSet,
    count_in,
    density_profile,
    geometric_points,
    non_elements,
    read_number,
    read_set_file,
    show_number,
    show_text,
    write_set_file,
)
from .sequences import FAMILIES, generate, parse_spec

__all__ = ["main"]

_MAX_LISTED = 20

#: Exit code of each failure, first match wins; every one prints one "error:" line.
_EXIT_CODES = {CoverFailed: 1, NoCover: 1, ValueError: 2, OSError: 2, AddcompError: 2, MemoryError: 2}


def _parse_range(text: str) -> tuple[int, int]:
    shape = f"range must look like LO..HI, got {show_text(text)}"
    lo, hi = (read_number(end, "range end", lambda _: shape) for end in text.partition("..")[::2])
    if hi < lo:
        raise ValueError(f"range upper end {show_number(hi)} below lower end {show_number(lo)}")
    if hi <= max(lo, 0):  # (LO, HI] holds no natural number
        raise ValueError(f"range ({show_number(lo)}, {show_number(hi)}] is empty")
    return lo, hi


def _int(text: str) -> int:
    """argparse's int type, naming a value int() refuses by its digit count or a cut echo."""
    try:
        return read_number(text, "integer", "invalid int value: {}".format)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _base_set(args, default=None) -> NatSet:
    """A from args.a at --horizon when given, else at the command's default; never raised."""
    return generate(parse_spec(args.a, default if args.horizon is None else args.horizon))


def _emit(path: str | None, text: str) -> None:
    """Write text plus a newline to path, or print it when no path is given."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_json(path: str | None, payload: dict) -> None:
    import json
    _emit(path, json.dumps(payload, indent=2))


def _print_points(points: NatSet, label: str = "missing") -> None:
    shown = [x for x, _ in zip(points, range(_MAX_LISTED))]
    print(f"{label} {len(points)} point(s): {' '.join(map(str, shown))}"
          + (f" ... and {len(points) - len(shown)} more" if len(points) > len(shown) else ""))


def _reject_flags(args, names, mode: str) -> None:
    """Raise ValueError naming each of the flags that was given but does not apply in mode."""
    given = [f"--{name.replace('_', '-')}" for name in names if getattr(args, name) is not None]
    if given:
        raise ValueError(f"{mode} does not take {', '.join(given)}")


def _require_disjoint(a: NatSet, b: NatSet) -> None:
    """Raise PreconditionViolated naming the smallest element B shares with A, if any."""
    if not b.isdisjoint(a):
        shared = (b.with_horizon(a.horizon) & a).min_element()
        raise PreconditionViolated("B n A = empty", f"{shared} is in both")


def _build_report(build: ComplementBuild) -> dict:
    return {
        "tool_version": __version__,
        "spec": build.source,
        "horizon": build.complement.horizon,
        "parameters": {
            "n0": build.analysis.n0,
            "alpha": float(build.analysis.alpha_exact),
            "r": build.analysis.r,
            "p": build.analysis.p,
            "gamma": build.analysis.gamma,
            "threshold": build.analysis.threshold,
            "certified": build.certified,
        },
        "blocks": [
            {
                "exponent": blk.exponent,
                "base": 1 << blk.exponent,
                "size": len(blk.trace.chosen),
                "degenerate": blk.trace.degenerate,
                "depth": blk.trace.depth,
                "gain_cutoff": blk.trace.gain_cutoff,
                "bound_two_term": blk.trace.bound_two_term,
                "bound_closed_form": blk.trace.bound_closed_form,
                "translate_bound_ok": blk.translate_bound_ok,
            }
            for blk in build.blocks
        ],
        "coverage": {
            "lo": build.analysis.threshold,
            "hi": build.missing.horizon,
            "ok": not build.missing,
            "missing_count": len(build.missing),
        },
        "density_samples": [
            {"n": s.n, "count": s.count, "ratio": s.ratio} for s in build.density
        ],
    }


def _trace_report(trace: GreedyTrace, *, context: dict) -> dict:
    payload = dict(context)
    payload.update(
        {
            "tool_version": __version__,
            "depth": trace.depth,
            "gain_cutoff": trace.gain_cutoff,
            "degenerate": trace.degenerate,
            "selected_size": len(trace.chosen),
            "peak_gain": max(trace.gains, default=0),
            "bound_two_term": trace.bound_two_term,
            "bound_closed_form": trace.bound_closed_form,
            "gain_counts": {str(g): c for g, c in sorted(trace.gain_counts.items(), reverse=True)},
            "chosen": list(trace.chosen),
            "gains": list(trace.gains),
        }
    )
    return payload


def _cmd_build(args) -> int:
    from .builder import build_complement
    spec = parse_spec(args.spec, args.horizon)
    build = build_complement(spec, alpha_hint=args.alpha)
    if args.out:
        write_set_file(args.out, build.complement, comment=f"complement of {build.source}")
    if args.report:
        _write_json(args.report, _build_report(build))
    print(
        f"built {len(build.complement)} elements in {len(build.blocks)} blocks "
        f"(gamma={build.analysis.gamma}, threshold={build.analysis.threshold})"
    )
    if not build.missing:
        print(f"coverage ({build.analysis.threshold}, {build.missing.horizon}] verified")
        return 0
    _print_points(build.missing)
    return 1


def _cmd_verify(args) -> int:
    lo, hi = _parse_range(args.range)
    a = _base_set(args, hi)
    # Disjointness is checked up to A's horizon, coverage only up to hi; B is
    # clipped to hi but never extended past the horizon it was read at.
    b = read_set_file(args.b_file, a.horizon)
    if not b.isdisjoint(a):
        _print_points(a & b, label="B meets A in")
        return 1
    clipped = b.with_horizon(min(hi, a.horizon))
    missing = verify_cover(a, clipped, lo, hi)
    if not missing:
        print(f"coverage ({lo}, {hi}] verified; "
              f"a={a.content_digest()[:12]} b={clipped.content_digest()[:12]}")
        return 0
    _print_points(missing)
    return 1


def _cmd_thin(args) -> int:
    from .greedy import GreedyInstance, greedy_thin, thin_block
    if args.q is not None:
        _reject_flags(args, ("m", "n", "x1", "x2", "b_file"), "--q")
        if args.q < 1:  # checked before 4q becomes A's horizon
            raise PreconditionViolated("q >= 1", f"got q={show_number(args.q)}")
        a = _base_set(args, 4 * args.q)
        selected, trace = thin_block(a, args.q)
        context = {"source": args.a, "q": args.q, "m": 2 * args.q, "n": 2 * args.q,
                   "x1": args.q, "x2": 4 * args.q}
    else:
        needed = [name for name in ("m", "n", "x1", "x2", "b_file")
                  if getattr(args, name) is None]
        if needed:
            raise ValueError(f"explicit mode needs --{', --'.join(needed)} (or use --q)")
        a = _base_set(args, args.x2)
        if a.horizon < args.x2:  # membership in A is unknown on part of (x1, x2]
            raise PreconditionViolated("horizon >= x2",
                                       f"horizon {a.horizon} < {show_number(args.x2)}")
        b = read_set_file(args.b_file)
        if count_in(b, args.x1, args.x2) == len(b):  # else validate names it
            _require_disjoint(a, b)
        inst = GreedyInstance(a=a, b=b, m=args.m, n=args.n, x1=args.x1, x2=args.x2)
        selected, trace = greedy_thin(inst)
        context = {"source": args.a, "m": args.m, "n": args.n,
                   "x1": args.x1, "x2": args.x2}
    if args.out:
        write_set_file(args.out, selected, comment=f"thinned cover from {args.a}")
    if args.report:
        _write_json(args.report, _trace_report(trace, context=context))
    bound = f", bound {trace.bound_two_term:.2f}" if trace.bound_two_term is not None else ""
    label = " (degenerate, kept whole)" if trace.degenerate else ""
    print(f"selected {len(selected)} candidates at depth {trace.depth}{bound}{label}")
    return 0


def _cmd_density(args) -> int:
    s = _base_set(args)
    samples = density_profile(s, geometric_points(s.horizon, args.samples))
    if args.format == "csv":
        lines = ["n,count,ratio"]
        lines += [f"{x.n},{x.count},{x.ratio}" for x in samples]
        _emit(args.out, "\n".join(lines))
    else:
        # The max / min ratio over the tail half, a finite stand-in for the limsup / liminf.
        tail = [x.ratio for x in samples[len(samples) // 2 :]]
        _write_json(
            args.out,
            {
                "tool_version": __version__,
                "set": args.a,
                "horizon": s.horizon,
                "upper_estimate": max(tail),
                "lower_estimate": min(tail),
                "samples": [{"n": x.n, "count": x.count, "ratio": x.ratio} for x in samples],
            },
        )
    return 0


def _cmd_gap(args) -> int:
    lo, hi = _parse_range(args.range)
    a = _base_set(args, hi)
    gaps = gap_detector(a, lo, hi)
    if not gaps:
        print(f"no gaps in ({lo}, {hi}]: every point splits as (element) + (non-element)")
        return 0
    _print_points(gaps)
    print(
        f"within ({lo}, {hi}] this is exact (sums from beyond {hi} cannot land here); "
        "it says nothing about larger targets"
    )
    return 1


def _cmd_oracle(args) -> int:
    from .greedy import greedy_cover
    from .oracle import minimal_cover
    if args.b_file is not None:
        _reject_flags(args, ("x1", "x2"), "--b-file")
    elif args.x1 is None or args.x2 is None:
        raise ValueError("provide --b-file or both --x1 and --x2")
    elif args.x2 < args.x1:  # checked before x2 becomes A's horizon
        raise ValueError(f"--x2 {show_number(args.x2)} below --x1 {show_number(args.x1)}")
    a = _base_set(args, args.x2)
    if args.b_file is not None:
        b = read_set_file(args.b_file)
        _require_disjoint(a, b)
    else:
        b = non_elements(a, args.x1, args.x2)
    optimal, size = minimal_cover(a, b, args.m, args.n)
    chosen, gains = greedy_cover(a, b, args.m, args.n)
    payload = {
        "tool_version": __version__,
        "m": args.m,
        "n": args.n,
        "candidates": len(b),
        "optimal_size": size,
        "optimal": optimal.to_list(),
        "greedy_size": len(chosen),
        "greedy": sorted(chosen),
        "greedy_matches_optimal": len(chosen) == size,
    }
    if args.report:
        _write_json(args.report, payload)
    print(f"optimal cover size {size}: {' '.join(map(str, optimal))}")
    print(f"greedy cover size {len(chosen)}"
          + (" (matches optimal)" if len(chosen) == size else " (strictly larger)"))
    return 0


def _add_common_set_args(parser):
    parser.add_argument("a", help="sequence spec or set file")
    parser.add_argument("--horizon", type=_int, default=None, help="truncation point")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="addcomp",
        description="Construct, thin, and exactly verify sparse additive complements.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a verified complement from dyadic blocks")
    p.add_argument("spec", help=f"sequence spec ({', '.join(FAMILIES)}, [file:]PATH)")
    p.add_argument("--horizon", type=_int, required=True)
    p.add_argument("--alpha", default=None, help="growth-ratio hint, e.g. 1.5")
    p.add_argument("--out", default=None, help="write the complement as a set file")
    p.add_argument("--report", default=None, help="write the JSON report")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("verify", help="check that B avoids A and A + B covers a range")
    _add_common_set_args(p)
    p.add_argument("b_file", help="set file with the complement candidate")
    p.add_argument("--range", required=True, help="LO..HI, checks (LO, HI]")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("thin", help="greedy-thin a translate cover")
    _add_common_set_args(p)
    p.add_argument("--q", type=_int, default=None, help="dyadic mode: thin (2q,4q] from (q,4q]")
    p.add_argument("--m", type=_int, default=None)
    p.add_argument("--n", type=_int, default=None)
    p.add_argument("--x1", type=_int, default=None)
    p.add_argument("--x2", type=_int, default=None)
    p.add_argument("--b-file", default=None, help="explicit candidate set file")
    p.add_argument("--out", default=None, help="write the selection as a set file")
    p.add_argument("--report", default=None, help="write the JSON trace report")
    p.set_defaults(func=_cmd_thin)

    p = sub.add_parser("density", help="sample |S n [1,n]| / n at geometric points")
    _add_common_set_args(p)
    p.add_argument("--samples", type=_int, default=32)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("gap", help="points not reachable as (element) + (non-element)")
    _add_common_set_args(p)
    p.add_argument("--range", required=True, help="LO..HI, scans (LO, HI]")
    p.set_defaults(func=_cmd_gap)

    p = sub.add_parser("oracle", help="exhaustive minimum cover on a tiny instance")
    _add_common_set_args(p)
    p.add_argument("--m", type=_int, required=True)
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--x1", type=_int, default=None)
    p.add_argument("--x2", type=_int, default=None)
    p.add_argument("--b-file", default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        detail = f"{args.command} ran out of memory" if isinstance(exc, MemoryError) else exc
        print(f"error: {detail}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
