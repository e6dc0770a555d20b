"""Qualitative description generation.

Extracts short "atom" fragments from sampled bullet-point descriptions,
composes them into longer candidate descriptions with a beam search over
a pluggable proxy scorer, and tabulates the best single description per
capacity level for display.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import _check_count, _check_seed, _csv_text
from .pipeline import _encoder_loss

__all__ = [
    "Atom",
    "BeamEntry",
    "DEFAULT_ATOM_PROMPT",
    "generate_atoms",
    "beam_compose",
    "best_single_description_curve",
    "curve_csv",
    "describe_pair",
]

DEFAULT_ATOM_PROMPT = "Describe in 10 short bullet points what you see"

#: leading bullet markers stripped from atom lines
_BULLET_RE = re.compile(r"^\s*(?:[-*•·]+|\d+[.)])\s*")

ATOM_JOINER = ", "


@dataclass(frozen=True)
class Atom:
    """One short description fragment."""

    text: str
    source: str = "sample_1"  # sample_1 | sample_2

    def __post_init__(self) -> None:
        if not self.text or "\n" in self.text:
            raise ValueError("atom text must be a nonempty single line")
        if self.source not in ("sample_1", "sample_2"):
            raise ValueError(f"unknown atom source {self.source!r}")


@dataclass(frozen=True)
class BeamEntry:
    """A composed candidate description built from distinct atoms."""

    atoms_used: tuple[int, ...]
    text: str
    proxy_score: float
    code_length: float

    def __post_init__(self) -> None:
        if len(set(self.atoms_used)) != len(self.atoms_used):
            raise ValueError("an atom may appear at most once per entry")


def generate_atoms(
    backend,
    context: str,
    count: int = 40,
    source: str = "sample_1",
    max_tokens: int = 40,
    seed: int = 0,
) -> list[Atom]:
    """Sample bullet-point descriptions and split them into unique atoms.

    Each round draws ``count`` descriptions under ``DEFAULT_ATOM_PROMPT`` at
    temperature 1. Sampling continues (with fresh seeds) until ``count``
    distinct atoms are collected or the backend stops producing new
    material.
    """
    _check_count("count", count)
    _check_seed(seed)
    seen: dict[str, None] = {}
    stale_rounds = 0
    round_no = 0
    while len(seen) < count and stale_rounds < 5:
        samples = backend.sample_descriptions(
            str(context),
            count,
            max_tokens=max_tokens,
            temperature=1.0,
            seed=seed + round_no,
            prompt=DEFAULT_ATOM_PROMPT,
        )
        round_no += 1
        before = len(seen)
        for s in samples:  # each draw's lines, bullet markers stripped
            for line in s.text.splitlines():
                line = _BULLET_RE.sub("", line).strip()
                if line:
                    seen.setdefault(line, None)
        stale_rounds = 0 if len(seen) > before else stale_rounds + 1
    return [Atom(text=t, source=source) for t in list(seen)[:count]]


def beam_compose(
    atoms: Sequence[Atom],
    proxy_scorer: Callable[[str], float],
    code_length_fn: Callable[[str], float],
    beam_width: int = 8,
    max_atoms: int = 10,
) -> list[list[BeamEntry]]:
    """Beam search over comma-joined atom sequences.

    Returns one list of at most ``beam_width`` entries per composed length
    L = 1..max_atoms, each sorted by descending ``proxy_scorer(text)`` with
    a (score, text) lexicographic tie-break. Each entry carries
    ``code_length_fn(text)`` as its code length; the beam ranks by the proxy
    score alone, so only the entries it keeps are given one.
    """
    if not atoms:
        raise ValueError("atom list must be nonempty")
    _check_count("beam_width", beam_width)
    _check_count("max_atoms", max_atoms)

    def top(candidates) -> list[BeamEntry]:
        scored = []
        for used in candidates:
            text = ATOM_JOINER.join(atoms[j].text for j in used)
            scored.append((float(proxy_scorer(text)), text, used))
        scored.sort(key=lambda e: (-e[0], e[1]))
        return [BeamEntry(atoms_used=used, text=text, proxy_score=score,
                          code_length=float(code_length_fn(text)))
                for score, text, used in scored[:beam_width]]

    # every length up to len(atoms) has an expansion: its beam's entries use
    # fewer atoms than there are
    per_length = [top((j,) for j in range(len(atoms)))]
    for _ in range(2, min(max_atoms, len(atoms)) + 1):
        per_length.append(top(entry.atoms_used + (j,)
                              for entry in per_length[-1]
                              for j in range(len(atoms))
                              if j not in entry.atoms_used))
    return per_length


def best_single_description_curve(
    entries: Sequence[BeamEntry],
    loss_fn: Callable[[str], tuple[float, float]],
) -> list[dict]:
    """Best feasible description per capacity level, for display.

    ``loss_fn(text)`` returns the two reconstruction losses of a
    description. The capacity levels are the entries' distinct code
    lengths, in increasing order. At each level C the feasible set is the
    entries with code_length <= C, never empty; rows report the per-sample
    loss minimizers and the summed-loss minimizer.
    """
    entries = list(entries)
    if not entries:
        raise ValueError("entry list must be nonempty")
    if not all(math.isfinite(e.code_length) for e in entries):
        raise ValueError("entries must carry finite code lengths")
    losses = [loss_fn(e.text) for e in entries]
    if any(math.isnan(v) for pair in losses for v in pair):
        raise ValueError("loss_fn returned NaN")
    rows = []
    for cap in sorted({float(e.code_length) for e in entries}):
        feas = [j for j, e in enumerate(entries) if e.code_length <= cap + 1e-12]
        row = {"capacity": cap}
        for name, label, key in (
            ("x1", "best_h_x1", lambda j: losses[j][0]),
            ("x2", "best_h_x2", lambda j: losses[j][1]),
            ("common", "best_common", lambda j: losses[j][0] + losses[j][1]),
        ):
            j = min(feas,
                    key=lambda i: (key(i), entries[i].code_length, entries[i].text))
            row[label] = entries[j].text
            row[f"loss_{name}"] = float(key(j))
        rows.append(row)
    return rows


def curve_csv(rows: Sequence[dict]) -> str:
    columns = ("capacity", "best_h_x1", "loss_x1", "best_h_x2", "loss_x2",
               "best_common", "loss_common")

    def fmt(v):
        if not isinstance(v, float):
            return v
        return "" if math.isnan(v) else f"{v:.12g}"

    return _csv_text(columns, ([fmt(row[k]) for k in columns] for row in rows))


def describe_pair(
    backend,
    a: str,
    b: str,
    atoms: int = 40,
    beam_width: int = 8,
    max_atoms: int = 10,
    max_tokens: int = 40,
    seed: int = 0,
) -> tuple[list[Atom], list[BeamEntry], list[dict]]:
    """Best single description per capacity for a pair, in nats.

    Pools up to ``atoms`` atoms from each input (first source kept),
    composes them by beam search under log p(h|a) + log p(h|b), and
    tabulates each composed length's winner with its encoder-only losses
    log p_hat(h) - log p(h|x). Returns (atoms, winners, rows).

    A winner whose code length or either conditional is not finite (a text
    the backend gives zero probability) is dropped with a warning; if none
    is left, ``ValueError``.
    """
    pool: dict[str, Atom] = {}
    for context, source in ((a, "sample_1"), (b, "sample_2")):
        for atom in generate_atoms(backend, context, count=atoms, source=source,
                                   seed=seed, max_tokens=max_tokens):
            pool.setdefault(atom.text, atom)
    pool_atoms = list(pool.values())

    def conditionals(text: str) -> tuple[float, float]:
        la, lb = backend.score_many([(a, text, True), (b, text, True)], prompt=None)
        return la.total, lb.total

    def proxy(text: str) -> float:
        la, lb = conditionals(text)
        return la + lb

    def losses(text: str) -> tuple[float, float]:
        _, loss = _encoder_loss(np.array(conditionals(text)))
        return float(loss[0]), float(loss[1])

    per_length = beam_compose(
        pool_atoms, proxy, beam_width=beam_width, max_atoms=max_atoms,
        code_length_fn=lambda text: -backend.score_many(
            [(None, text, True)], prompt=None)[0].total,
    )
    winners = [beam[0] for beam in per_length]
    kept = [w for w in winners if math.isfinite(w.code_length)
            and all(map(math.isfinite, conditionals(w.text)))]
    if not kept:
        raise ValueError(f"none of the {len(winners)} composed descriptions "
                         "has finite scores")
    if len(kept) < len(winners):
        warnings.warn(f"dropping {len(winners) - len(kept)} descriptions with "
                      "non-finite scores")
    return pool_atoms, kept, best_single_description_curve(kept, losses)
