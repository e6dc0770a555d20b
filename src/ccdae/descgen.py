"""Qualitative description generation.

Extracts short "atom" fragments from sampled bullet-point descriptions,
composes them into longer candidate descriptions with a beam search over
a pluggable proxy scorer, and tabulates the best single description per
capacity level for display.
"""

from __future__ import annotations

import csv
import io
import math
import re
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

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
    code_length: float = float("nan")

    def __post_init__(self) -> None:
        if len(set(self.atoms_used)) != len(self.atoms_used):
            raise ValueError("an atom may appear at most once per entry")


def generate_atoms(
    backend,
    context: str,
    count: int = 40,
    prompt: str = DEFAULT_ATOM_PROMPT,
    source: str = "sample_1",
    max_tokens: int = 40,
    temperature: float = 1.0,
    seed: int = 0,
) -> list[Atom]:
    """Sample bullet-point descriptions and split them into unique atoms.

    Sampling continues (with fresh seeds) until ``count`` distinct atoms
    are collected or the backend stops producing new material.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    seen: dict[str, None] = {}
    stale_rounds = 0
    round_no = 0
    while len(seen) < count and stale_rounds < 5:
        samples = backend.sample_descriptions(
            str(context),
            count,
            max_tokens=max_tokens,
            temperature=temperature,
            seed=seed + round_no,
            prompt=prompt,
        )
        round_no += 1
        before = len(seen)
        for s in samples:  # each draw's lines, bullet markers stripped
            for line in (s.text or "".join(s.tokens)).splitlines():
                line = _BULLET_RE.sub("", line).strip()
                if line:
                    seen.setdefault(line, None)
        stale_rounds = 0 if len(seen) > before else stale_rounds + 1
    return [Atom(text=t, source=source) for t in list(seen)[:count]]


def beam_compose(
    atoms: Sequence[Atom],
    proxy_scorer: Callable[[str], float],
    beam_width: int = 8,
    max_atoms: int = 10,
    negative_prompt_penalty: float = 0.0,
    negative_scorer: Callable[[str], float] | None = None,
    code_length_fn: Callable[[str], float] | None = None,
) -> list[list[BeamEntry]]:
    """Beam search over comma-joined atom sequences.

    Returns one list of at most ``beam_width`` entries per composed length
    L = 1..max_atoms, each sorted by descending penalized score with a
    (score, text) lexicographic tie-break. The penalized score is
    ``proxy_scorer(text) - negative_prompt_penalty * negative_scorer(text)``.
    """
    if not atoms:
        raise ValueError("atom list must be nonempty")
    if beam_width < 1 or max_atoms < 1:
        raise ValueError("beam_width and max_atoms must be >= 1")
    if negative_prompt_penalty and negative_scorer is None:
        raise ValueError("negative_prompt_penalty requires a negative_scorer")

    def scored(used: tuple[int, ...]) -> BeamEntry:
        text = ATOM_JOINER.join(atoms[j].text for j in used)
        s = float(proxy_scorer(text))
        if negative_prompt_penalty and negative_scorer is not None:
            s -= negative_prompt_penalty * float(negative_scorer(text))
        code = float(code_length_fn(text)) if code_length_fn else float("nan")
        return BeamEntry(atoms_used=used, text=text, proxy_score=s,
                         code_length=code)

    def top(entries: list[BeamEntry]) -> list[BeamEntry]:
        entries.sort(key=lambda e: (-e.proxy_score, e.text))
        return entries[:beam_width]

    per_length: list[list[BeamEntry]] = []
    beam = top([scored((j,)) for j in range(len(atoms))])
    per_length.append(beam)
    for _ in range(2, min(max_atoms, len(atoms)) + 1):
        expansions = [
            scored(entry.atoms_used + (j,))
            for entry in beam
            for j in range(len(atoms))
            if j not in entry.atoms_used
        ]
        if not expansions:
            break
        beam = top(expansions)
        per_length.append(beam)
    return per_length


def best_single_description_curve(
    entries: Sequence[BeamEntry],
    loss_fn: Callable[[str], tuple[float, float]],
    capacity_grid: Sequence[float] | None = None,
) -> list[dict]:
    """Best feasible description per capacity level, for display.

    ``loss_fn(text)`` returns the two reconstruction losses of a
    description. For each capacity C the feasible set is the entries with
    code_length <= C; rows report the per-sample loss minimizers and the
    summed-loss minimizer, or empty strings when nothing is feasible.
    """
    entries = list(entries)
    if not entries:
        raise ValueError("entry list must be nonempty")
    if not all(math.isfinite(e.code_length) for e in entries):
        raise ValueError("entries must carry finite code lengths")
    losses = [loss_fn(e.text) for e in entries]
    if any(math.isnan(v) for pair in losses for v in pair):
        raise ValueError("loss_fn returned NaN")
    if capacity_grid is None:
        capacity_grid = sorted({float(e.code_length) for e in entries})

    def best(feasible: list[int], key) -> int | None:
        if not feasible:
            return None
        return min(feasible,
                   key=lambda j: (key(j), entries[j].code_length, entries[j].text))

    rows = []
    for cap in capacity_grid:
        feas = [j for j, e in enumerate(entries) if e.code_length <= cap + 1e-12]
        row = {"capacity": float(cap)}
        for name, label, key in (
            ("x1", "best_h_x1", lambda j: losses[j][0]),
            ("x2", "best_h_x2", lambda j: losses[j][1]),
            ("common", "best_common", lambda j: losses[j][0] + losses[j][1]),
        ):
            j = best(feas, key)
            row[label] = "" if j is None else entries[j].text
            row[f"loss_{name}"] = float("nan") if j is None else float(key(j))
        rows.append(row)
    return rows


def curve_csv(rows: Sequence[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["capacity", "best_h_x1", "loss_x1", "best_h_x2", "loss_x2",
         "best_common", "loss_common"]
    )
    for row in rows:
        def fmt(v):
            return "" if isinstance(v, float) and math.isnan(v) else (
                f"{v:.12g}" if isinstance(v, float) else v
            )
        writer.writerow(
            [fmt(row[k]) for k in ("capacity", "best_h_x1", "loss_x1",
                                   "best_h_x2", "loss_x2", "best_common",
                                   "loss_common")]
        )
    return buf.getvalue()


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
        return (backend.cond_logprob(a, text).total,
                backend.cond_logprob(b, text).total)

    def proxy(text: str) -> float:
        la, lb = conditionals(text)
        return la + lb

    def losses(text: str) -> tuple[float, float]:
        la, lb = conditionals(text)
        log_phat = np.logaddexp(la, lb) - math.log(2.0)
        return float(log_phat - la), float(log_phat - lb)

    per_length = beam_compose(
        pool_atoms, proxy, beam_width=beam_width, max_atoms=max_atoms,
        code_length_fn=lambda text: -backend.code_logprob(text).total,
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
