"""The three workloads: set-up, items, and checks on their outputs.

Each workload is one closed loop with one client in one process: the next
item starts only when the previous one has finished. A workload runs in
*units* (``run_unit``); one unit is one or more items. The workload seed
makes the inputs; ``ccdae`` sees only those inputs.

* ``pairs`` -- ``bench.run_similarity_bench`` over the 40 bundled graded
  pairs with the n-gram backend and the default ``CompareConfig``, seeded
  by the workload seed. One unit is one pass over the pairs; an item is
  one pair. ``core`` does most of the work on tiny batches.
* ``choice-remote`` -- ``bench.run_choice_bench`` over the 20 bundled
  choice records (10 samples x 10 tokens), through ``RemoteBackend`` and
  an in-process fake server with a fixed latency per request. One unit
  and one item is one record. Waiting on the backend is most of the time.
* ``tables`` -- seeded random ``FiniteHypothesisTable``s of fixed sizes
  from 10^3 to 10^4 hypotheses. One unit and one item is one table: the
  estimator on proposal draws, ``exact_distance_curve``, and the
  estimator in exact mode. No backend runs; ``core`` and ``oracle`` work
  on large batches.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

from ccdae import backends, bench, core, oracle, pipeline

from .fake_remote import FakeRemoteSession
from .tracing import ItemLog, patched

__all__ = ["WORKLOADS", "make", "golden_matches", "DATA"]

DATA = Path(pipeline.__file__).resolve().parent / "data"

#: Fixed round-trip latency of the fake server. With it, waiting on
#: requests is most of a choice record's wall time.
REMOTE_LATENCY_S = 0.020

#: Table sizes, log-spaced from 10^3 to 10^4 hypotheses. The 200 x H
#: float64 logits of one trace take 1.6 MB at the low end, within a
#: 2-4 MiB L2 cache, and 16 MB at the high end, well beyond it. Three
#: sizes keep a pass short enough for each table to repeat several
#: times in a 30 s run.
TABLE_SIZES = (1000, 3160, 10000)
TABLE_DRAWS = 20000

#: Tolerance of the exact-mode check against exact_distance_curve.
EXACT_MODE_TOL = 1e-9


def _digest(values) -> str:
    """A digest of scores at 12 significant digits, the precision the CSVs use."""
    text = "\n".join(f"{v:.12g}" for v in values)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def golden_matches() -> bool:
    """Re-run the golden comparison and compare its CSV byte for byte.

    The same run as ``ccdae --backend table --fixture multimodal_fixture.json
    --seed 0 compare img_sunset cap_positive --samples 10 --max-tokens 10``.
    """
    backend = backends.TableBackend.load(DATA / "multimodal_fixture.json")
    config = pipeline.CompareConfig(
        samples_per_input=10, max_tokens=10, seed=0,
        lambda_grid=tuple(np.linspace(0.0, 100.0, 200)),
    )
    report = pipeline.compare("img_sunset", "cap_positive", backend, config)
    golden = (DATA / "golden_compare.csv").read_bytes()
    return report.curve.to_csv().encode("utf-8") == golden


class Workload:
    """A workload's inputs, its units of work and the checks on its outputs.

    The timed loop runs units over the workload's inputs, in a fixed order,
    again and again. Subclasses pass each scored item's outputs to
    ``record``, keyed by input, and report quality on the first row of
    each input.
    """

    name: str
    #: Inputs; one pass of the timed loop runs each of them once.
    pass_items: int
    backend = None
    fake: FakeRemoteSession | None = None

    def __init__(self, seed: int):
        self.seed = seed
        self.rows: dict[str, dict] = {}
        self.differ: list[str] = []
        self.errors: list[str] = []

    def waited(self) -> float:
        """Seconds spent so far waiting on the fake server's latency."""
        return self.fake.wait_s if self.fake is not None else 0.0

    def run_unit(self, k: int, log: ItemLog) -> None:
        raise NotImplementedError

    def record(self, key: str, row: dict) -> None:
        """Keep an input's first row; note any repeat that differs from it."""
        first = self.rows.setdefault(key, row)
        if row != first:
            self.differ.append(key)

    def quality(self, gates: dict) -> dict:
        """Quality values of the first rows; adds workload-specific gates."""
        raise NotImplementedError

    def check(self) -> dict:
        """Quality values and gate results over the items scored so far."""
        gates = {
            "golden_csv": golden_matches(),
            "scored": bool(self.rows),
            "repeats_agree": not self.differ,
        }
        out = {"gates": gates, "errors": self.errors, "repeats_differ": self.differ}
        if self.rows:
            out.update(self.quality(gates))
        return out


class Pairs(Workload):
    name = "pairs"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.records = bench.load_pairs(DATA / "pairs.tsv").records
        self.backend = backends.NGramBackend(
            backends.NGramModel.load(DATA / "toy_ngram.json"))
        self.config = pipeline.CompareConfig(seed=seed)
        self.pass_items = len(self.records)

    def run_unit(self, k: int, log: ItemLog) -> None:
        score = bench.pair_score
        ids = iter(self.records)

        def timed_pair_score(*args, **kwargs):
            with log.item(next(ids).id):
                return score(*args, **kwargs)

        try:
            with patched([(bench, "pair_score", timed_pair_score)]):
                report = bench.run_similarity_bench(
                    self.records, self.backend, self.config, backend_id="ngram")
        except bench.BenchError as exc:
            self.errors.append(str(exc))
            return
        self.errors += [f"{f['id']}: {f['error']}" for f in report.failures]
        for row in report.per_record:
            self.record(row["id"], row)

    def quality(self, gates) -> dict:
        first = [self.rows[rec.id] for rec in self.records if rec.id in self.rows]
        scores = [r["score"] for r in first]
        rho_x100 = 100.0 * bench.spearman(scores, [r["human"] for r in first])
        gates["all_pairs_scored"] = len(first) == len(self.records)
        gates["scores_finite"] = all(map(math.isfinite, scores))
        if self.seed == 0:
            gates["seed0_spearman_x100"] = round(rho_x100, 2) == 98.30
        return {"spearman_x100": rho_x100, "digest": _digest(scores)}


class ChoiceRemote(Workload):
    name = "choice-remote"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.records = bench.load_choices(DATA / "choices.tsv").records
        server_model = backends.NGramBackend(
            backends.NGramModel.load(DATA / "toy_ngram.json"))
        self.fake = FakeRemoteSession(server_model, REMOTE_LATENCY_S)
        self.backend = backends.RemoteBackend("http://fake-server", session=self.fake)
        self.config = pipeline.CompareConfig(samples_per_input=10, max_tokens=10,
                                             seed=seed)
        self.pass_items = len(self.records)

    def run_unit(self, k: int, log: ItemLog) -> None:
        rec = self.records[k % self.pass_items]
        try:
            with log.item(rec.id):
                report = bench.run_choice_bench(
                    [rec], self.backend, self.config, backend_id="remote")
        except bench.BenchError as exc:
            self.errors.append(f"{rec.id}: {exc}")
            return
        self.record(rec.id, report.per_record[0])

    def quality(self, gates) -> dict:
        first = [self.rows[rec.id] for rec in self.records if rec.id in self.rows]
        scores = [r["score"] for r in first]
        accuracy = sum(r["hit"] for r in first) / len(first)
        gates["scores_finite"] = all(map(math.isfinite, scores))
        if self.seed == 0:
            gates["seed0_accuracy"] = accuracy == 1.0
        return {"accuracy": accuracy, "digest": _digest(scores)}


def random_table(rng: np.random.Generator, size: int) -> oracle.FiniteHypothesisTable:
    """A normalised code over ``size`` hypotheses and two correlated loss rows."""
    logits = rng.normal(0.0, 1.5, size)
    code_lengths = -(logits - np.logaddexp.reduce(logits))
    shared = rng.gamma(2.0, 1.0, size)
    loss = 0.5 * shared + 0.5 * rng.gamma(2.0, 1.0, (2, size))
    return oracle.FiniteHypothesisTable(code_lengths=code_lengths, loss=loss)


class Tables(Workload):
    name = "tables"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.tables = []
        self.draw_seeds = []
        self.exact_mode_err = 0.0
        for j, size in enumerate(TABLE_SIZES):
            rng = np.random.default_rng([seed, j])
            self.tables.append(random_table(rng, size))
            self.draw_seeds.append(int(rng.integers(2**31)))
        self.pass_items = len(self.tables)

    def run_unit(self, k: int, log: ItemLog) -> None:
        j = k % self.pass_items
        table = self.tables[j]
        try:
            with log.item(f"t{j}"):
                batch = oracle.proposal_batch(table, TABLE_DRAWS, seed=self.draw_seeds[j])
                estimate = core.distance_curve(batch)
                exact = oracle.exact_distance_curve(table)
                exact_mode = core.distance_curve(oracle.exact_batch(table))
        except ValueError as exc:
            self.errors.append(f"t{j}: {exc}")
            return
        # The estimator's error, over the capacity range both curves reach.
        c_max = min(estimate.c_max, exact.c_max)
        exact_mode_err = max(
            abs(exact_mode.auc - exact.auc),
            abs(exact_mode.c_max - exact.c_max),
            float(np.max(np.abs(exact_mode.distance - exact.distance))))
        self.exact_mode_err = max(self.exact_mode_err, exact_mode_err)
        self.record(f"t{j}", {
            "unique": batch.n_hypotheses,
            "auc_estimate": estimate.auc,
            "auc_exact": exact.auc,
            "auc_exact_mode": exact_mode.auc,
            "auc_abs_err": abs(
                core.auc(estimate.capacity_grid, estimate.distance, c_max)
                - core.auc(exact.capacity_grid, exact.distance, c_max)),
            "exact_mode_err": exact_mode_err,
        })

    def quality(self, gates) -> dict:
        first = [self.rows[f"t{j}"] for j in range(self.pass_items)
                 if f"t{j}" in self.rows]
        gates["exact_mode"] = self.exact_mode_err <= EXACT_MODE_TOL
        return {
            "auc_abs_err": float(np.mean([r["auc_abs_err"] for r in first])),
            "exact_mode_err_max": self.exact_mode_err,
            "unique_over_draws": [r["unique"] / TABLE_DRAWS for r in first],
            "digest": _digest([v for r in first for v in (
                r["auc_estimate"], r["auc_exact"], r["auc_exact_mode"])]),
        }


WORKLOADS = {w.name: w for w in (Pairs, ChoiceRemote, Tables)}


def make(name: str, seed: int) -> Workload:
    """Build a workload's backend and inputs: the part timed as set-up."""
    return WORKLOADS[name](seed)
