import tracemalloc

import pytest

from posetalg import (
    IncidenceAlgebra,
    MultiplicationTable,
    Poset,
    chain,
    diamond,
    format_poset,
    parse_poset,
    scramble,
)
from posetalg import cli, recovery
from posetalg.checks import CheckResult
from posetalg.cli import main


CHAIN3_TEXT = "elements: a b c\nrelations: a<b b<c\n"


@pytest.fixture
def chain3_file(tmp_path):
    p = tmp_path / "chain3.pos"
    p.write_text(CHAIN3_TEXT)
    return str(p)


def dual(Q):
    return Poset(Q.labels, Q.down)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_info(capsys, chain3_file):
    code, out, _ = run(capsys, "info", "--input", chain3_file)
    assert code == 0
    assert out == (
        "n=3 strict_pairs=3 covers=2 longest_chain=3 comparable_pairs=6 "
        "generators_reflexive=6 generators_irreflexive=3\n"
    )


def test_info_reads_counts_from_the_poset(capsys, tmp_path):
    # the pair counts are P.n + strict pairs and strict pairs: building the
    # pair poset for them holds O(pairs^2) bits (28 MB traced on chain(150))
    p = tmp_path / "chain150.pos"
    p.write_text(format_poset(chain(150)))
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "info", "--input", str(p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert out == (
        "n=150 strict_pairs=11175 covers=149 longest_chain=150 "
        "comparable_pairs=11325 generators_reflexive=11325 "
        "generators_irreflexive=11175\n"
    )
    assert peak < 5 * 2**20, peak


def test_ideals_listing(capsys, tmp_path):
    p = tmp_path / "chain2.pos"
    p.write_text("elements: a b\nrelations: a<b\n")
    code, out, _ = run(capsys, "ideals", "--input", str(p))
    assert code == 0
    assert out == (
        "{} zero\n"
        "{[a,b]} indecomposable\n"
        "{[a,a],[a,b]} indecomposable maximal-indecomposable maximal\n"
        "{[b,b],[a,b]} indecomposable maximal-indecomposable maximal\n"
        "{[a,a],[b,b],[a,b]} full\n"
        "total=5\n"
    )


def test_export_table_roundtrips(capsys, chain3_file, tmp_path):
    out_path = tmp_path / "table.json"
    code, _, _ = run(
        capsys, "export", "table", "--input", chain3_file, "--out", str(out_path)
    )
    assert code == 0
    T = MultiplicationTable.from_json_text(out_path.read_text())
    want = IncidenceAlgebra(parse_poset(CHAIN3_TEXT), "reflexive")
    assert T == want.multiplication_table()


def test_export_is_byte_stable(capsys, chain3_file):
    code1, out1, _ = run(capsys, "export", "hasse", "--input", chain3_file)
    code2, out2, _ = run(capsys, "export", "hasse", "--input", chain3_file)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.startswith("digraph hasse {")


def test_export_pairs_and_lattice(capsys, chain3_file):
    code, out, _ = run(capsys, "export", "pairs", "--input", chain3_file)
    assert code == 0 and '"[a,c]"' in out
    code, out, _ = run(capsys, "export", "ideal-lattice", "--input", chain3_file)
    assert code == 0 and out.count('"{') >= 14


def test_recover_roundtrip_via_files(capsys, chain3_file, tmp_path):
    table_path = tmp_path / "t.json"
    run(capsys, "export", "table", "--input", chain3_file, "--out", str(table_path))
    out_path = tmp_path / "recovered.pos"
    code, out, _ = run(
        capsys, "recover", "--input", str(table_path), "--out", str(out_path)
    )
    assert code == 0
    assert "schemes_agree=yes" in out
    Q = parse_poset(out_path.read_text())
    assert Q.n == 3 and Q.strict_pair_count() == 3


def test_recover_dot_format(capsys, chain3_file, tmp_path):
    table_path = tmp_path / "t.json"
    run(capsys, "export", "table", "--input", chain3_file, "--out", str(table_path))
    code, out, _ = run(capsys, "recover", "--input", str(table_path), "--format", "dot")
    assert code == 0
    assert "digraph hasse" in out


def test_check_poset(capsys, chain3_file):
    code, out, _ = run(capsys, "check", "--poset", chain3_file)
    assert code == 0
    assert "0 failed" in out


def test_check_bad_table_exits_1(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"dim": 2, "entries": [[0, 1, "1", 0]]}')
    code, out, _ = run(capsys, "check", "--table", str(p))
    assert code == 1
    assert "FAIL" in out


def test_good_table_check_exits_0(capsys, chain3_file, tmp_path):
    table_path = tmp_path / "t.json"
    run(capsys, "export", "table", "--input", chain3_file, "--out", str(table_path))
    code, out, _ = run(capsys, "check", "--table", str(table_path))
    assert code == 0
    assert "summary: 4 checks, 0 failed" in out


def test_dims_output(capsys, chain3_file):
    code, out, _ = run(capsys, "dims", "--input", chain3_file, "--max-degree", "4")
    assert code == 0
    assert out == "degree dimension\n1 3\n2 9\n3 9\n4 9\n"


def test_dims_past_the_enumeration_range(capsys, tmp_path):
    p = tmp_path / "chain2.pos"
    p.write_text("elements: a b\nrelations: a<b\n")
    code, out, _ = run(
        capsys, "dims", "--input", str(p), "--triples", "distinct_only",
        "--max-degree", "32",
    )
    assert code == 0
    assert out.splitlines()[-1] == "32 560"


def test_reduce_output(capsys, chain3_file):
    code, out, _ = run(capsys, "reduce", "--input", chain3_file, "--word", "a b c")
    assert (code, out) == (0, "a c\n")
    code, out, _ = run(capsys, "reduce", "--input", chain3_file, "--word", "b a")
    assert (code, out) == (0, "0\n")


@pytest.mark.parametrize("word", ["a z", ""], ids=["unknown", "empty"])
def test_reduce_unknown_label_exits_2(capsys, chain3_file, word):
    code, out, err = run(capsys, "reduce", "--input", chain3_file, "--word", word)
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "info", "--input", "/nonexistent.pos")
    assert code == 2
    assert "error:" in err


def test_cyclic_poset_exits_2(capsys, tmp_path):
    p = tmp_path / "cyc.pos"
    p.write_text("elements: a b\nrelations: a<b b<a\n")
    code, _, err = run(capsys, "info", "--input", str(p))
    assert code == 2
    assert "cycle" in err


def test_argparse_rejects_bad_choices(chain3_file):
    with pytest.raises(SystemExit) as e:
        main(["check", "--corpus", "everything"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["dims", "--input", chain3_file, "--max-degree", "99"])
    assert e.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--poset", "P", "--cap", "-3"],
        ["check", "--corpus", "exhaustive4", "--cap", "-1"],
        ["ideals", "--input", "P", "--cap", "-1"],
        ["export", "ideal-lattice", "--input", "P", "--cap", "-1"],
    ],
    ids=["check_poset", "check_corpus", "ideals", "export"],
)
def test_negative_cap_is_malformed_input(argv, capsys, chain3_file):
    # check --cap -3 used to read "PASS (0 posets, 1 skipped)" for every
    # capped check and exit 0
    argv = [chain3_file if a == "P" else a for a in argv]
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "--cap must be 0 or more" in out.err


def test_cap_zero_is_valid(capsys, chain3_file):
    code, out, _ = run(capsys, "check", "--poset", chain3_file, "--cap", "0")
    assert code == 0
    assert "check ideal_count: PASS (0 posets, 1 skipped)" in out.splitlines()


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("elements: a b\nrelations: a<b\n"))
    code, out, _ = run(capsys, "info", "--input", "-")
    assert code == 0 and out.startswith("n=2 ")


CORPUS_CHECK_LINES = """\
check pair_minimals: PASS ({n} posets)
check ideal_count: PASS ({listed})
check sum_lemma: PASS ({listed})
check intersection_meet: PASS ({listed})
check product_lemma: PASS ({n} posets)
check product_in_intersection: PASS ({n} posets)
check bijections: PASS ({n} posets)
check idempotence: PASS ({n} posets)
check maximality: PASS ({n} posets)
check diagonal_products: PASS ({n} posets)
check span_corollary: PASS ({n} posets)
check quasi_idempotents: PASS ({n} posets)
check links_are_covers: PASS ({n} posets)
check unscrambled_recovery: PASS ({n} posets)
check scramble_identity: PASS ({n} posets)
check roundtrip: PASS ({n} posets)
summary: {n} posets, 16 checks, 0 failed
"""


def test_corpus_check_small(capsys):
    # the checks that list every ideal skip the 17 random7 posets past 12 pairs
    for corpus, n, listed in (
        ("exhaustive4", 243, "243 posets"),
        ("random7", 100, "83 posets, 17 skipped"),
    ):
        code, out, _ = run(capsys, "check", "--corpus", corpus)
        assert code == 0
        assert out == CORPUS_CHECK_LINES.format(n=n, listed=listed)


def test_corpus_check_prints_the_first_failure(capsys, monkeypatch):
    # one check that fails on the last two of three posets
    monkeypatch.setattr(cli, "get_corpus", lambda name: [chain(1), chain(2), chain(3)])
    details = {1: "first detail", 2: "second detail"}

    def run_poset_checks(P, seeds, enum_cap):
        detail = details.get(P.n - 1)
        return [CheckResult("demo", detail is None, detail or "")]

    monkeypatch.setattr(cli, "run_poset_checks", run_poset_checks)
    code, out, _ = run(capsys, "check", "--corpus", "exhaustive4")
    assert code == 1
    assert out == (
        "check demo: FAIL (2 of 3) first detail\n"
        "summary: 3 posets, 1 checks, 1 failed\n"
    )


@pytest.mark.parametrize(
    "text",
    [
        '{"dim":2,"entries":5}',
        '{"dim": true, "entries": [[false,false,"1",false]]}',
        '{"dim":1,"entries":[[0,0,"1e4000000",0]]}',
    ],
)
def test_malformed_table_exits_2_without_traceback(capsys, tmp_path, text):
    p = tmp_path / "bad.json"
    p.write_text(text)
    for argv in (("recover", "--input", str(p)), ("check", "--table", str(p))):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err


def test_recover_refuses_table_with_no_poset(capsys, tmp_path):
    # b0*b0 = b1: no quasi-idempotent, so the recovered poset is empty
    p = tmp_path / "dim2.json"
    p.write_text('{"dim":2,"entries":[[0,0,"1",1]]}')
    out_path = tmp_path / "recovered.pos"
    code, out, err = run(capsys, "recover", "--input", str(p), "--out", str(out_path))
    assert code == 2
    assert out == ""
    assert "index 1 not placed" in err
    assert not out_path.exists()


def test_routes_that_disagree_exit_1(capsys, monkeypatch, tmp_path):
    # the link route returns the dual, which diamond() shares its shape with
    via_links = recovery.recover_by_links
    monkeypatch.setattr(recovery, "recover_by_links", lambda t: dual(via_links(t)))
    T = scramble(IncidenceAlgebra(diamond(), "reflexive").multiplication_table(), 1)
    P = recovery.recover_by_ideal_products(T)
    p = tmp_path / "diamond.json"
    p.write_text(T.to_json_text())
    code, out, err = run(capsys, "recover", "--input", str(p))
    assert code == 1
    assert out == (
        "dim=%d\nquasi_idempotents=4\nschemes_agree=no\n" % T.dim + format_poset(P)
    )
    assert err == "second scheme differs:\n" + format_poset(dual(P))
    code, out, _ = run(capsys, "check", "--table", str(p))
    assert code == 1
    assert out.splitlines()[-3:] == [
        "check table_schemes_agree: FAIL %r vs %r" % (P, dual(P)),
        "check table_shape: PASS",
        "summary: 4 checks, 1 failed",
    ]


NOT_UTF8 = b"\xff\xfe"


def test_non_utf8_file_exits_2_without_traceback(capsys, tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(NOT_UTF8)
    for argv in (
        ("info", "--input", str(p)),
        ("recover", "--input", str(p)),
        ("check", "--table", str(p)),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "not UTF-8" in err
        assert "Traceback" not in err


def test_non_utf8_stdin_exits_2_without_traceback(capsys, monkeypatch):
    import io

    stdin = io.TextIOWrapper(io.BytesIO(NOT_UTF8), encoding="utf-8", errors="strict")
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run(capsys, "info", "--input", "-")
    assert code == 2
    assert out == ""
    assert err.startswith("error: stdin is not UTF-8") and "Traceback" not in err
