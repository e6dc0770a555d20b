import itertools
import math
from dataclasses import dataclass, field

import pytest

from ccdae import backends, cli, descgen
from ccdae.descgen import Atom, BeamEntry


@dataclass(frozen=True)
class _Sample:
    text: str
    tokens: tuple = ()


@dataclass
class _StubBackend:
    """Emits fixed bullet-point blocks; records the seeds it was asked for."""

    blocks: list
    seeds_seen: list = field(default_factory=list)

    def sample_descriptions(self, context, n, max_tokens=40, temperature=1.0,
                            seed=0, prompt=None):
        self.seeds_seen.append(seed)
        block = self.blocks[min(seed, len(self.blocks) - 1)]
        return [_Sample(text=block)] * n


# ---------------------------------------------------------------------------
# atoms


def test_atom_validation():
    with pytest.raises(ValueError):
        Atom(text="")
    with pytest.raises(ValueError):
        Atom(text="two\nlines")
    with pytest.raises(ValueError):
        Atom(text="ok", source="elsewhere")
    with pytest.raises(ValueError, match="unknown atom source"):
        Atom(text="ok", source="ensemble")
    assert Atom(text="ok", source="sample_2").source == "sample_2"


def test_beam_entry_rejects_repeated_atoms():
    with pytest.raises(ValueError):
        BeamEntry(atoms_used=(0, 1, 0), text="x", proxy_score=0.0)


def test_generate_atoms_strips_bullets_and_dedups():
    be = _StubBackend(blocks=["- red sky\n* red sky\n1. tall mast\n2) wet deck\n"
                              "• calm sea\n   \n"])
    atoms = descgen.generate_atoms(be, "ctx", count=10)
    assert [a.text for a in atoms[:4]] == ["red sky", "tall mast", "wet deck",
                                           "calm sea"]
    assert all(a.source == "sample_1" for a in atoms)


def test_generate_atoms_count_truncation():
    be = _StubBackend(blocks=["- a\n- b\n- c\n- d\n"])
    atoms = descgen.generate_atoms(be, "ctx", count=2)
    assert [a.text for a in atoms] == ["a", "b"]


def test_generate_atoms_fresh_seeds_until_stale():
    # a single repeating block never yields new atoms, so sampling stops
    # after the stale-round limit instead of looping forever
    be = _StubBackend(blocks=["- only one\n"])
    atoms = descgen.generate_atoms(be, "ctx", count=5, seed=3)
    assert [a.text for a in atoms] == ["only one"]
    assert be.seeds_seen[:3] == [3, 4, 5]  # fresh seed per round


def test_generate_atoms_accumulates_across_rounds():
    be = _StubBackend(blocks=["- a\n- b\n", "- c\n", "- d\n"])
    atoms = descgen.generate_atoms(be, "ctx", count=4)
    assert [a.text for a in atoms] == ["a", "b", "c", "d"]


def test_generate_atoms_rejects_bad_count():
    with pytest.raises(ValueError):
        descgen.generate_atoms(_StubBackend(blocks=["- a\n"]), "ctx", count=0)


# ---------------------------------------------------------------------------
# beam composition


def _atoms(*texts):
    return [Atom(text=t) for t in texts]


def test_beam_validation():
    atoms = _atoms("a", "b")
    with pytest.raises(ValueError):
        descgen.beam_compose([], lambda t: 0.0)
    with pytest.raises(ValueError):
        descgen.beam_compose(atoms, lambda t: 0.0, beam_width=0)
    with pytest.raises(ValueError):
        descgen.beam_compose(atoms, lambda t: 0.0,
                             negative_prompt_penalty=1.0)


def test_beam_single_length_argmax():
    atoms = _atoms("short", "much longer atom", "mid one")
    beams = descgen.beam_compose(atoms, lambda t: -len(t), max_atoms=1)
    assert len(beams) == 1
    assert beams[0][0].text == "short"
    assert beams[0][0].atoms_used == (0,)


def test_beam_lengths_and_no_repeats():
    atoms = _atoms("a", "b", "c")
    beams = descgen.beam_compose(atoms, lambda t: -len(t), beam_width=4,
                                 max_atoms=10)
    assert len(beams) == 3  # capped at len(atoms)
    for length, beam in enumerate(beams, start=1):
        for entry in beam:
            assert len(entry.atoms_used) == length
            assert len(set(entry.atoms_used)) == length


def test_beam_wide_matches_exhaustive_search():
    atoms = _atoms("ash", "birch", "cedar", "dune", "elm")

    def scorer(text):
        return math.sin(sum((i + 1) * ord(ch) for i, ch in enumerate(text)))

    beams = descgen.beam_compose(atoms, scorer, beam_width=1000, max_atoms=3)
    for length, beam in enumerate(beams, start=1):
        best = max(
            (scorer(descgen.ATOM_JOINER.join(atoms[j].text for j in perm))
             for perm in itertools.permutations(range(len(atoms)), length)),
        )
        assert beam[0].proxy_score == pytest.approx(best, abs=1e-12)


def test_beam_negative_prompt_penalty():
    atoms = _atoms("aa", "bbbb")
    plain = descgen.beam_compose(atoms, lambda t: float(len(t)), max_atoms=1)
    # penalizing length twice as hard flips the preference
    penalized = descgen.beam_compose(
        atoms, lambda t: float(len(t)), max_atoms=1,
        negative_prompt_penalty=2.0, negative_scorer=lambda t: float(len(t)),
    )
    assert plain[0][0].text == "bbbb"
    assert penalized[0][0].text == "aa"
    assert penalized[0][0].proxy_score == pytest.approx(-2.0)


def test_beam_code_length_fn():
    atoms = _atoms("a", "bb")
    beams = descgen.beam_compose(atoms, lambda t: 0.0, max_atoms=2,
                                 code_length_fn=lambda t: float(len(t)))
    assert beams[0][0].code_length in (1.0, 2.0)
    assert all(not math.isnan(e.code_length) for b in beams for e in b)


def test_beam_deterministic_tie_break():
    atoms = _atoms("b", "a")
    beams = descgen.beam_compose(atoms, lambda t: 0.0, max_atoms=1)
    assert [e.text for e in beams[0]] == ["a", "b"]


# ---------------------------------------------------------------------------
# best-single-description curve


def _entry(text, code):
    return BeamEntry(atoms_used=(hash(text) % 997,), text=text,
                     proxy_score=0.0, code_length=code)


def test_curve_requires_code_lengths():
    with pytest.raises(ValueError):
        descgen.best_single_description_curve([], lambda t: (0.0, 0.0))
    bad = BeamEntry(atoms_used=(0,), text="x", proxy_score=0.0)
    with pytest.raises(ValueError):
        descgen.best_single_description_curve([bad], lambda t: (0.0, 0.0))


def test_curve_single_entry():
    rows = descgen.best_single_description_curve(
        [_entry("only", 2.0)], lambda t: (1.5, 2.5)
    )
    assert len(rows) == 1
    row = rows[0]
    assert row["capacity"] == 2.0
    assert row["best_h_x1"] == row["best_h_x2"] == row["best_common"] == "only"
    assert row["loss_x1"] == 1.5 and row["loss_x2"] == 2.5
    assert row["loss_common"] == 4.0


def test_curve_switchover_and_infeasible():
    entries = [_entry("cheap", 1.0), _entry("sharp", 3.0)]
    losses = {"cheap": (5.0, 4.0), "sharp": (1.0, 1.0)}
    rows = descgen.best_single_description_curve(
        entries, lambda t: losses[t], capacity_grid=[0.5, 1.0, 3.0]
    )
    assert rows[0]["best_h_x1"] == "" and math.isnan(rows[0]["loss_x1"])
    assert rows[1]["best_h_x1"] == "cheap" and rows[1]["loss_x1"] == 5.0
    assert rows[2]["best_h_x1"] == "sharp" and rows[2]["loss_x1"] == 1.0
    assert rows[2]["best_common"] == "sharp" and rows[2]["loss_common"] == 2.0


def test_curve_losses_non_increasing_in_capacity():
    entries = [_entry(t, c) for t, c in
               [("a", 1.0), ("b", 2.0), ("c", 3.0), ("d", 4.0)]]
    losses = {"a": (4.0, 1.0), "b": (3.0, 5.0), "c": (2.0, 0.5), "d": (9.0, 9.0)}
    rows = descgen.best_single_description_curve(entries, lambda t: losses[t])
    for col in ("loss_x1", "loss_x2", "loss_common"):
        vals = [r[col] for r in rows]
        assert vals == sorted(vals, reverse=True) or all(
            a >= b - 1e-12 for a, b in zip(vals, vals[1:])
        )


def test_curve_common_minimizes_summed_loss():
    entries = [_entry("p", 1.0), _entry("q", 1.0)]
    losses = {"p": (0.0, 3.0), "q": (1.0, 1.0)}
    rows = descgen.best_single_description_curve(entries, lambda t: losses[t])
    assert rows[0]["best_h_x1"] == "p"
    assert rows[0]["best_h_x2"] == "q"
    assert rows[0]["best_common"] == "q"
    assert rows[0]["loss_common"] == 2.0


def test_curve_csv_header_and_nan_blank():
    rows = descgen.best_single_description_curve(
        [_entry("one", 2.0)], lambda t: (1.0, 2.0), capacity_grid=[1.0, 2.0]
    )
    text = descgen.curve_csv(rows)
    lines = text.splitlines()
    assert lines[0] == ("capacity,best_h_x1,loss_x1,best_h_x2,loss_x2,"
                        "best_common,loss_common")
    assert lines[1] == "1,,,,,,"
    assert lines[2] == "2,one,1,one,2,one,3"


def test_curve_rejects_non_finite_code_lengths_and_nan_losses():
    with pytest.raises(ValueError, match="finite code lengths"):
        descgen.best_single_description_curve([_entry("x", math.inf)],
                                              lambda t: (0.0, 0.0))
    with pytest.raises(ValueError, match="NaN"):
        descgen.best_single_description_curve([_entry("x", 1.0)],
                                              lambda t: (math.nan, 0.0))


# ---------------------------------------------------------------------------
# describe_pair


def test_describe_pair_drops_winners_with_non_finite_scores(ngram_backend):
    # "," is not in the toy model's vocabulary, so every joined description
    # of two or more atoms scores -inf
    with pytest.warns(UserWarning, match="dropping 2 descriptions"):
        _, winners, rows = descgen.describe_pair(
            ngram_backend, "rain", "iron", atoms=6, beam_width=3, max_atoms=3,
            max_tokens=12)
    assert [w.text for w in winners] == ["floods rise"]
    assert len(rows) == 1
    assert all(math.isfinite(rows[0][k])
               for k in ("capacity", "loss_x1", "loss_x2", "loss_common"))


class _UnscorableBackend(_StubBackend):
    """Every text has zero probability under both inputs."""

    def cond_logprob(self, context, text, prompt=None, terminated=True):
        return backends.LogProbResult.from_tokens([-math.inf])

    def code_logprob(self, text, terminated=True):
        return backends.LogProbResult.from_tokens([-1.0])


def test_describe_pair_with_no_finite_winner_raises_and_cli_exits_1(
        monkeypatch, capsys):
    backend = _UnscorableBackend(["- red\n- blue"])
    with pytest.raises(ValueError, match="none of the 2 composed descriptions"):
        descgen.describe_pair(backend, "a", "b", atoms=2)
    monkeypatch.setattr(cli, "_make_backend", lambda args: backend)
    assert cli.main(["describe", "a", "b", "--atoms", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: none of the 2 composed descriptions")
