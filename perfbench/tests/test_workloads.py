import pytest

import expectations
import workloads
from arrinv import parse_arrangement


def snapshot(wl):
    return [op.argv("W") for op in wl.ops], {k: v.text for k, v in wl.files.items()}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_same_bytes_other_seed_other_inputs(name):
    assert snapshot(workloads.build(name, 7)) == snapshot(workloads.build(name, 7))
    assert snapshot(workloads.build(name, 7)) != snapshot(workloads.build(name, 8))


def test_cli_sweep_covers_every_subcommand_and_refusal():
    wl = workloads.build("cli-sweep", 3)
    commands = {op.command for op in wl.ops}
    assert commands == {"info", "l2", "betti", "holonomy", "decomp", "lcs", "chen",
                        "resonance", "charvar", "milnor", "check"}
    subjects = {}
    codes = [(op.command, expectations.expect(op, wl, subjects)[0]) for op in wl.ops]
    assert ("lcs", 2) in codes and ("charvar", 2) in codes and ("milnor", 2) in codes
    assert ("decomp", 3) in codes and ("holonomy", 3) in codes
    big = [op for op in wl.ops if op.command == "milnor" and "--mult" in op.options
           and sum(map(int, op.options[op.options.index("--mult") + 1].split(","))) >= 1000]
    assert len(big) == 2


def test_generated_files_parse_to_their_normals():
    wl = workloads.build("cli-sweep", 11)
    for name, gen in wl.files.items():
        arr = parse_arrangement(gen.text)
        assert [tuple(int(v) for v in row) for row in arr.normals] == list(gen.normals), name


def test_oracle_flats_and_milnor_count():
    # x3: three triple points and six double points
    normals = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1))
    flats = expectations.flats_of(normals)
    assert sorted(len(f) for f in flats) == [2] * 6 + [3] * 3
    assert (0, 1, 3) in flats
    assert expectations.product_formula_lcs(6, [len(f) - 1 for f in flats], 5) == \
        {1: 6, 2: 3, 3: 6, 4: 9, 5: 18}
    spectrum = expectations.milnor_spectrum(flats, (1, 1, 1, 1, 1, 1))
    assert spectrum == {j: 0 for j in range(1, 6)}
    assert expectations.witt(6, 4) == 315


@pytest.mark.parametrize("normals, ranks", [
    # x3: the product formula of criterion 07
    (((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1)), [3, 6, 9]),
    # braid:3 (A3): the pure braid group P4, phi_k = witt(2, k) + witt(3, k)
    (((1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1)), [4, 10, 21]),
])
def test_word_route_matches_known_lcs_ranks(normals, ranks):
    flats = expectations.flats_of(normals)
    assert [expectations.holonomy_lcs_by_words(len(normals), flats, k) for k in (2, 3, 4)] == ranks
