"""Best single description per capacity level.

Using the bundled cross-modal fixture (one pseudo-image context and two
caption contexts over a shared description vocabulary), atoms are
sampled from both inputs, composed by beam search under the summed
conditional score, and tabulated: at each code-length budget, which
single description best reconstructs each input, and which one is the
best compromise for both.
"""

from pathlib import Path

from ccdae import backends, descgen

DATA = Path(backends.__file__).parent / "data"

backend = backends.TableBackend.load(DATA / "multimodal_fixture.json")
atoms, winners, rows = descgen.describe_pair(
    backend, "img_sunset", "cap_positive", atoms=6, beam_width=4, max_atoms=2,
)
print(f"{len(atoms)} atoms:")
for atom in atoms:
    print(f"  [{atom.source}] {atom.text}")

print("\nbeam winners per composed length:")
for entry in winners:
    print(f"  len={len(entry.atoms_used)} score={entry.proxy_score:7.2f} "
          f"code={entry.code_length:6.2f}  {entry.text}")

print("\nbest single description per capacity:")
print(descgen.curve_csv(rows), end="")
