"""In-memory spans around calls into addcomp's modules, and the per-layer
metrics derived from them.

Spans are recorded from the benchmark's side only: Tracer.installed()
replaces each public function at the module attribute its caller looks it
up by (``addcomp.builder.thin_block``, ``addcomp.cover.sumset`` ...) with a
wrapper that opens a span, calls the original, and reads counts off the
returned value.  Nothing inside ``src/`` is changed; the originals are put
back when the context exits.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

LAYERS = ("cli", "builder", "sequences", "greedy", "cover", "natset", "oracle")

#: Counts that must repeat exactly from one traced run of the same commands to the next.
EXACT_COUNTS = (
    "greedy.blocks",
    "greedy.degenerate_blocks",
    "greedy.picks",
    "cover.block_cover_calls",
    "cover.candidates",
    "natset.sumset_calls",
    "natset.sumset_shifts",
    "natset.sumset_bytes_computed",
    "sequences.a_size",
)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _size(result, *args, **kwargs) -> dict:
    return {"size": len(result)}


def _block(result, *args, **kwargs) -> dict:
    selected, trace = result
    return {
        "q": args[1],
        "depth": trace.depth,
        "degenerate": trace.degenerate,
        "selected": len(selected),
        "bound_two_term": trace.bound_two_term,
    }


def _picks(result, *args, **kwargs) -> dict:
    chosen, _gains = result
    return {"picks": len(chosen)}


def _candidates(result, *args, **kwargs) -> dict:
    return {"candidates": len(result.candidate_set)}


def _shifts(result, a, b, horizon=None) -> dict:
    # The shifted ORs natset.sumset performs for these operands: one per
    # element of the smaller operand below the horizon, each over h bits.
    from addcomp.natset import count_in

    h = horizon if horizon is not None else max(a.horizon, b.horizon)
    small = a if len(a) <= len(b) else b
    return {"shifts": count_in(small, 1, h, "[)"), "horizon": h}


#: (module, attribute, span name, counts read off the result) for every
#: call boundary the workloads cross.
POINTS = (
    ("addcomp.cli", "build_complement", "builder.build_complement", None),
    ("addcomp.cli", "verify_cover", "builder.verify_cover", None),
    ("addcomp.builder", "verify_cover", "builder.verify_cover", None),
    ("addcomp.cli", "generate", "sequences.generate", _size),
    ("addcomp.builder", "generate", "sequences.generate", _size),
    ("addcomp.builder", "analyze_ratio", "sequences.analyze_ratio", None),
    ("addcomp.builder", "thin_block", "greedy.thin_block", _block),
    ("addcomp.greedy", "greedy_cover", "greedy.greedy_cover", _picks),
    ("addcomp.greedy", "GreedyInstance.validate", "greedy.validate", None),
    ("addcomp.greedy", "block_cover", "cover.block_cover", _candidates),
    ("addcomp.cover", "sumset", "natset.sumset", _shifts),
    ("addcomp.greedy", "sumset", "natset.sumset", _shifts),
    ("addcomp.builder", "sumset", "natset.sumset", _shifts),
    ("addcomp.oracle", "sumset", "natset.sumset", _shifts),
    ("addcomp.cli", "read_set_file", "natset.read_set_file", None),
    ("addcomp.cli", "write_set_file", "natset.write_set_file", None),
    ("addcomp.builder", "density_profile", "natset.density_profile", None),
    ("addcomp.cli", "gap_detector", "oracle.gap_detector", None),
)


class Tracer:
    """Collects spans in memory; write() dumps them once the run is over."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._open: list[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        sp = Span(len(self.spans), self._open[-1] if self._open else None, name,
                  time.perf_counter() - self._origin)
        self.spans.append(sp)
        self._open.append(sp.id)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter() - self._origin
            self._open.pop()

    def _wrap(self, fn, name, counts):
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            if counts is not None:
                sp.attrs.update(counts(result, *args, **kwargs))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every boundary in POINTS; a boundary the program no longer
        has is listed in self.missing and its metrics read 0."""
        undo = []
        try:
            for module, attr, name, counts in POINTS:
                owner = importlib.import_module(module)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf, None)
                if original is None:
                    self.missing.append(f"{module}.{attr}")
                    continue
                setattr(owner, leaf, self._wrap(original, name, counts))
                undo.append((owner, leaf, original))
            yield self
        finally:
            for owner, leaf, original in reversed(undo):
                setattr(owner, leaf, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(sp) for sp in self.spans], fh)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer times and counts over every span of one traced pass."""
    children: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)

    def named(name):
        return [sp for sp in spans if sp.name == name]

    def total(name):
        return sum(sp.seconds for sp in named(name))

    blocks = named("greedy.thin_block")
    for blk in blocks:
        blk.attrs["candidates"] = sum(
            c.attrs["candidates"] for c in children.get(blk.id, ()) if c.name == "cover.block_cover"
        )
    picks = sum(sp.attrs["picks"] for sp in named("greedy.greedy_cover"))
    candidates = sum(sp.attrs["candidates"] for sp in named("cover.block_cover"))
    sums = named("natset.sumset")
    shifts = sum(sp.attrs["shifts"] for sp in sums)
    bound_use = [blk.attrs["selected"] / blk.attrs["bound_two_term"]
                 for blk in blocks if not blk.attrs["degenerate"]]

    out = {
        "greedy.thin_block_s": total("greedy.thin_block"),
        "greedy.thin_block_max_s": max((sp.seconds for sp in blocks), default=0.0),
        "greedy.greedy_cover_s": total("greedy.greedy_cover"),
        "greedy.validate_s": total("greedy.validate"),
        "greedy.blocks": len(blocks),
        "greedy.degenerate_blocks": sum(1 for blk in blocks if blk.attrs["degenerate"]),
        "greedy.picks": picks,
        "greedy.pick_ratio": picks / candidates if candidates else 0.0,
        "greedy.bound_use": max(bound_use, default=0.0),
        "cover.block_cover_s": total("cover.block_cover"),
        "cover.block_cover_calls": len(named("cover.block_cover")),
        "cover.candidates": candidates,
        "natset.sumset_s": total("natset.sumset"),
        "natset.sumset_calls": len(sums),
        "natset.sumset_shifts": shifts,
        "natset.sumset_bytes_computed": sum(sp.attrs["shifts"] * sp.attrs["horizon"] // 8
                                            for sp in sums),
        "natset.read_set_file_s": total("natset.read_set_file"),
        "natset.write_set_file_s": total("natset.write_set_file"),
        "natset.density_profile_s": total("natset.density_profile"),
        "oracle.gap_detector_s": total("oracle.gap_detector"),
        "sequences.generate_s": total("sequences.generate"),
        "sequences.analyze_ratio_s": total("sequences.analyze_ratio"),
        "sequences.a_size": max((sp.attrs["size"] for sp in named("sequences.generate")),
                                default=0),
        "builder.build_complement_s": total("builder.build_complement"),
        "builder.verify_cover_s": total("builder.verify_cover"),
        "cli.main_s": total("cli.main"),
    }
    # A layer's self time: its spans' durations minus the time their
    # children (nested calls into any layer) account for.
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            sp.seconds - sum(c.seconds for c in children.get(sp.id, ()))
            for sp in spans if sp.name.split(".")[0] == layer
        )
    return out

