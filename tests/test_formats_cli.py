import argparse
import errno
import hashlib
import io
import os
import random
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from monoidkit import (InputError, build_expansion, dfa_to_transition_monoid,
                       load_table, parse_dfa, parse_tgen, serialize_monoid)
from monoidkit.cli import (_COMMANDS, _build_parser, _digest, _parse_plain,
                           cli_dispatch)
from catalog import b21, fixtures, flipflop, n3, t2, trivial, z2, z3
from helpers import run_mono

ROOT = Path(__file__).resolve().parent.parent
FIXDIR = ROOT / "fixtures"
SRCDIR = ROOT / "src"


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:12]


def run(argv, capsys):
    code = cli_dispatch([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# one well-formed command of each subcommand, each exiting 0
COMMANDS = [
    ["info", FIXDIR / "N3.mon"],
    ["greens", FIXDIR / "flipflop.mon"],
    ["ideal", FIXDIR / "N3.mon", "0"],
    ["cut", FIXDIR / "Z2.mon", "-n", "2", "--map", "a=g,b=g", "ab"],
    ["expand", FIXDIR / "Z2.mon", "-n", "2", "--gens", "a=g"],
    ["lemma", "--u", "ab,ba", "--v", "a,bb,a"],
    ["replay", FIXDIR / "Z2.mon", "-n", "2", "--map", "a=g",
     "--u", "aa,aa", "--w", "a,aaa"],
    ["shadow", FIXDIR / "N3.mon"],
    ["from-dfa", FIXDIR / "flipflop.dfa"],
    ["from-tgen", FIXDIR / "flipflop.tgen"],
]


N3_GOLDEN = """elements: 1 a 0
identity: 1
table:
1 a 0
a 0 0
0 0 0
"""


def test_serialize_golden_texts():
    assert serialize_monoid(n3()) == N3_GOLDEN
    assert serialize_monoid(trivial()) == "elements: 1\nidentity: 1\ntable:\n1\n"


def test_serialize_round_trip():
    # tables, closures of .tgen and .dfa fixtures and an expansion: a monoid
    # is its names, identity and table, so the loaded copy equals it
    built = [trivial(), z2(), z3(), n3(), flipflop(), t2(), b21()]
    built += [parse_tgen(path.read_text())[0] for path in sorted(FIXDIR.glob("*.tgen"))]
    built += [dfa_to_transition_monoid(parse_dfa(path.read_text()))[0]
              for path in sorted(FIXDIR.glob("*.dfa"))]
    built.append(build_expansion(*fixtures()["t2"], 2).as_monoid())
    for M in built:
        text = serialize_monoid(M)
        M2 = load_table(text)
        assert M2.names == M.names
        assert M2.identity == M.identity
        assert M2.table == M.table
        assert M2 == M and hash(M2) == hash(M)
        assert serialize_monoid(M2) == text


def test_fixture_files_match_catalog():
    built = {
        "trivial": trivial(), "Z2": z2(), "Z3": z3(), "N3": n3(),
        "flipflop": flipflop(), "T2": t2(), "B21": b21(),
    }
    for name, M in built.items():
        assert (FIXDIR / f"{name}.mon").read_text() == serialize_monoid(M)


def test_tgen_flipflop():
    M, g = parse_tgen((FIXDIR / "flipflop.tgen").read_text())
    assert M.names == ("1", "s", "r")
    assert M.table == flipflop().table
    assert [g.image(a) for a in ("s", "r")] == [1, 2]


@pytest.mark.parametrize("text", [
    "degree: 0\n",
    "degree: two\n",
    "gen s: 1 1\n",
    "degree: 2\ngen s: 1\n",
    "degree: 2\ngen s: 1 3\n",
    "degree: 2\ngen s: 1 1\ngen s: 2 2\n",
    "degree: 2\nnot a gen line\n",
    "degree: \u00b2\n",                 # str.isdigit, but not int()
    "degree: 2\ngen s: 1 \u00b2\n",
    "degree: 1025\n",                 # past MAX_TGEN_DEGREE
    "degree: 1000000000\n",
    # numerals too long for int()
    pytest.param("degree: " + "9" * 5000 + "\n", id="degree-5000-digits"),
    pytest.param("degree: 2\ngen s: 1 " + "9" * 5000 + "\n", id="image-5000-digits"),
])
def test_tgen_errors(text):
    with pytest.raises(InputError):
        parse_tgen(text)


def test_dfa_flipflop():
    d = parse_dfa((FIXDIR / "flipflop.dfa").read_text())
    assert d.states == ("q0", "q1")
    assert d.start == 0 and d.accepting == (1,)
    M, g = dfa_to_transition_monoid(d)
    assert M.order == 3
    assert M.table == flipflop().table


def test_dfa_swap_collapses_to_z2():
    d = parse_dfa((FIXDIR / "swap.dfa").read_text())
    M, g = dfa_to_transition_monoid(d)
    assert M.order == 2
    assert g.image("a") == 1
    assert g.image("b") == 0  # b fixes both states, so it acts as the identity


def test_dfa_single_state():
    text = ("states: q\nalphabet: a\nstart: q\naccept:\n"
            "delta: q a q\n")
    M, _ = dfa_to_transition_monoid(parse_dfa(text))
    assert M.order == 1


@pytest.mark.parametrize("text", [
    "states: q0 q1\nalphabet: a\nstart: q0\naccept:\ndelta: q0 a q1\n",
    "states: q0\nalphabet: ab\nstart: q0\naccept:\ndelta: q0 ab q0\n",
    "states: q0\nalphabet: a\nstart: q9\naccept:\ndelta: q0 a q0\n",
    "states: q0\nalphabet: a\nstart: q0\naccept: q9\ndelta: q0 a q0\n",
    "states: q0\nalphabet: a\nstart: q0\naccept:\ndelta: q0 a q0\ndelta: q0 a q0\n",
])
def test_dfa_errors(text):
    with pytest.raises(InputError):
        parse_dfa(text)


def n3_info_golden() -> str:
    return (
        "aperiodic=true\n"
        "command=info\n"
        "idempotents={1,0}\n"
        "identity=1\n"
        f"input={digest(FIXDIR / 'N3.mon')}\n"
        "minimal_ideal={0}\n"
        "order=3\n"
        "regular_elements={1,0}\n"
    )


def test_cli_info_n3_golden(capsys):
    code, out, _ = run(["info", FIXDIR / "N3.mon", "--format", "machine"], capsys)
    assert code == 0
    assert out == n3_info_golden()


def test_python_m_runs_the_cli():
    proc = run_mono(["info", "fixtures/N3.mon", "--format", "machine"])
    assert proc.returncode == 0
    assert proc.stdout == n3_info_golden().encode()
    proc = run_mono(["nonsense"])
    assert proc.returncode == 2 and b"invalid choice: 'nonsense'" in proc.stderr


def test_cli_greens_flipflop_golden(capsys):
    path = FIXDIR / "flipflop.mon"
    code, out, _ = run(["greens", path, "--format", "machine"], capsys)
    assert code == 0
    assert out == (
        "command=greens\n"
        "h_classes=[{1},{s},{r}]\n"
        f"input={digest(path)}\n"
        "j_classes=[{1},{s,r}]\n"
        "j_order=1<0\n"
        "l_classes=[{1},{s},{r}]\n"
        "r_classes=[{1},{s,r}]\n"
    )


def test_cli_ideal_n3_golden(capsys):
    path = FIXDIR / "N3.mon"
    code, out, _ = run(["ideal", path, "0", "--format", "machine"], capsys)
    assert code == 0
    assert out == (
        "command=ideal\n"
        "generators={0}\n"
        "ideal={0}\n"
        "idempotent=true\n"
        f"input={digest(path)}\n"
        "prime=false\n"
        "prime_witness=(a,a)\n"
    )


def test_cli_cut_golden(capsys):
    path = FIXDIR / "Z2.mon"
    code, out, _ = run(
        ["cut", path, "-n", "2", "--map", "a=g,b=g", "ab", "--format", "machine"],
        capsys)
    assert code == 0
    assert out == (
        "command=cut\n"
        "image=1\n"
        f"input={digest(path)}\n"
        "n=2\n"
        "profile={(1,1),(g,g)}\n"
        "size=2\n"
        "word=ab\n"
    )


def test_cli_expand_golden(capsys):
    path = FIXDIR / "Z2.mon"
    code, out, _ = run(
        ["expand", path, "-n", "2", "--gens", "a=g", "--format", "machine"], capsys)
    assert code == 0
    assert out == (
        "base_order=2\n"
        "command=expand\n"
        "eta_aperiodic=true\n"
        "eta_fibers=1:2,g:1\n"
        "generated_size=2\n"
        f"input={digest(path)}\n"
        "n=2\n"
        "order=3\n"
    )


def test_cli_lemma_golden(capsys):
    code, out, _ = run(["lemma", "--u", "ab,ba", "--v", "a,bb,a",
                        "--format", "machine"], capsys)
    assert code == 0
    d = hashlib.sha256(b"ab,ba|a,bb,a").hexdigest()[:12]
    assert out == (
        "command=lemma\n"
        "i=2\n"
        f"input={d}\n"
        "j=3\n"
        "offset=1\n"
        "u_parts=ab,ba\n"
        "v_parts=a,bb,a\n"
    )


def test_cli_lemma_digests_non_utf8_argv_bytes():
    # argv bytes reach the CLI as lone surrogates; the digest is of the bytes,
    # and the report, echoing them as \xNN, encodes on a strict UTF-8 stdout
    proc = run_mono(["lemma", "--u", b"\xff", "--v", b"\xff", "--format", "machine"],
                    env={"PYTHONIOENCODING": "utf-8:strict"})
    assert proc.returncode == 0 and proc.stderr == b""
    d = hashlib.sha256(b"\xff|\xff").hexdigest()[:12]
    assert f"input={d}\n".encode() in proc.stdout
    assert b"u_parts=\\xff\n" in proc.stdout


def test_cli_writes_utf8_whatever_pythonioencoding(tmp_path):
    # a report, an echoed argument and an error line each leave as UTF-8
    # when PYTHONIOENCODING names a codec that cannot hold them
    path = tmp_path / "alpha.mon"
    path.write_text("elements: 1 \u03b1\nidentity: 1\ntable:\n1 \u03b1\n\u03b1 1\n",
                    encoding="utf-8")
    argv = ["info", str(path), "--format", "machine"]
    proc = run_mono(argv, env={"PYTHONIOENCODING": "latin-1"})
    assert proc.returncode == 0 and proc.stderr == b""
    assert "aperiodic_witness=\u03b1\n".encode() in proc.stdout
    assert proc.stdout == run_mono(argv).stdout
    proc = run_mono(["lemma", "--u", "\u00e9", "--v", "\u00e9", "--format", "machine"],
                    env={"PYTHONIOENCODING": "latin-1"})
    assert proc.returncode == 0 and b"u_parts=\xc3\xa9\nv_parts=\xc3\xa9\n" in proc.stdout
    missing = tmp_path / "n\u00f6.mon"
    proc = run_mono(["info", str(missing)], env={"PYTHONIOENCODING": "ascii"})
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr == (
        f"error: [Errno 2] No such file or directory: {str(missing)!r}\n".encode())


def test_cli_shadow_violated_golden(capsys):
    path = FIXDIR / "N3.mon"
    code, out, _ = run(
        ["shadow", path, "--map", "a=a", "--alphas", "a;a",
         "--ideals", "a^w|a^w", "--format", "machine"], capsys)
    assert code == 1
    assert out == (
        "alphas=a;a\n"
        "command=shadow\n"
        "hypothesis=true\n"
        "ideal_product={0}\n"
        "ideals=a^w|a^w\n"
        f"input={digest(path)}\n"
        "m=2\n"
        "membership=1:1=false;1:2=false;2:1=false;2:2=false\n"
        "mode=ideal_product\n"
        "n=2\n"
        "product=0\n"
        "verdict=violated\n"
    )


def test_cli_shadow_stability_golden(capsys):
    path = FIXDIR / "N3.mon"
    code, out, _ = run(["shadow", path, "--format", "machine"], capsys)
    assert code == 0
    assert out == (
        "checked=36\n"
        "command=shadow\n"
        f"input={digest(path)}\n"
        "mode=group_element\n"
        "verdict=holds\n"
    )


def test_cli_replay_golden(capsys):
    path = FIXDIR / "Z2.mon"
    code, out, _ = run(
        ["replay", path, "-n", "2", "--map", "a=g", "--u", "aa,aa",
         "--w", "a,aaa", "--format", "machine"], capsys)
    assert code == 0
    assert out == (
        "command=replay\n"
        "hypothesis=true\n"
        "i=1\n"
        f"input={digest(path)}\n"
        "j=1\n"
        "membership=true\n"
        "n=2\n"
        "offset=0\n"
        "part_image=g\n"
        "source_image=1\n"
        "u_parts=aa,aa\n"
        "v_parts=a,aaa\n"
        "w_parts=a,aaa\n"
    )


def test_cli_replay_hypothesis_failure(capsys):
    path = FIXDIR / "flipflop.mon"
    code, out, _ = run(
        ["replay", path, "-n", "1", "--map", "a=s,b=r", "--u", "a",
         "--w", "b", "--format", "machine"], capsys)
    assert code == 1
    assert "hypothesis=false\n" in out


def test_cli_from_dfa_golden(capsys):
    path = FIXDIR / "flipflop.dfa"
    code, out, _ = run(["from-dfa", path, "--format", "machine"], capsys)
    assert code == 0
    assert out == (
        "command=from-dfa\n"
        f"input={digest(path)}\n"
        "letter_images=a:a,b:b\n"
        "letters=a,b\n"
        "order=3\n"
        "states=2\n"
    )


def test_cli_from_tgen_golden(capsys):
    path = FIXDIR / "flipflop.tgen"
    code, out, _ = run(["from-tgen", path, "--format", "machine"], capsys)
    assert code == 0
    assert out == (
        "command=from-tgen\n"
        f"input={digest(path)}\n"
        "letter_images=s:s,r:r\n"
        "order=3\n"
    )


def test_cli_from_dfa_writes_mon(tmp_path, capsys):
    out_path = tmp_path / "ff.mon"
    code, out, _ = run(["from-dfa", FIXDIR / "flipflop.dfa", "-o", out_path,
                        "--format", "machine"], capsys)
    assert code == 0
    M = load_table(out_path.read_text())
    assert M.table == flipflop().table


def test_cli_expand_writes_mon_and_sidecar(tmp_path, capsys):
    out_path = tmp_path / "exp.mon"
    code, _, _ = run(["expand", FIXDIR / "Z2.mon", "-n", "2", "--gens", "a=g",
                      "-o", out_path, "--format", "machine"], capsys)
    assert code == 0
    E = load_table(out_path.read_text())
    assert E.names == ("P0", "P1", "P2")
    sidecar = (tmp_path / "exp.mon.map").read_text().splitlines()
    assert sidecar[0] == "P0 eta=1 rep= profile={(1,1)}"
    assert sidecar[1] == "P1 eta=g rep=a profile={(1,g),(g,1)}"
    assert sidecar[2] == "P2 eta=1 rep=aa profile={(1,1),(g,g)}"


def test_cli_written_files_escape_non_utf8_argv_bytes(tmp_path, capsys):
    # a letter named by a \xff argv byte reaches the sidecar as \xNN, as
    # in a report; an unwritable -o file is an error line and exit 2
    out_path = tmp_path / "exp.mon"
    code, _, _ = run(["expand", FIXDIR / "Z2.mon", "-n", "2", "--gens", "\udcff=g",
                      "-o", out_path, "--format", "machine"], capsys)
    assert code == 0
    sidecar = (tmp_path / "exp.mon.map").read_text(encoding="utf-8").splitlines()
    assert sidecar[2] == "P2 eta=1 rep=\\xff\\xff profile={(1,1),(g,g)}"
    if os.path.exists("/dev/full"):
        code, out, err = run(["expand", FIXDIR / "Z2.mon", "-n", "2", "--gens",
                              "a=g", "-o", "/dev/full"], capsys)
        assert (code, out, err) == (2, "", os_error_line(errno.ENOSPC))


def test_cli_expand_cap_opens_no_file(tmp_path, capsys):
    # the build spreads every profile but the identity's, whose one tuple of
    # 20000000 entries passes the entries cap: it exits 2 before -o opens
    # either file
    code, out, err = run(["expand", FIXDIR / "trivial.mon", "-n", "20000000",
                          "--gens", "a=1", "-o", tmp_path / "X"], capsys)
    assert (code, out) == (2, "")
    assert err == ("error: cut profile of 1 tuples of 20000000 entries exceeds "
                   "cap of 10000000 entries\n")
    assert list(tmp_path.iterdir()) == []


def test_cli_expand_table_flag(capsys):
    code, out, _ = run(["expand", FIXDIR / "Z2.mon", "-n", "2", "--gens", "a=g",
                        "--table", "--format", "machine"], capsys)
    assert code == 0
    assert "table=P0:P0,P1,P2;P1:P1,P2,P1;P2:P2,P1,P2\n" in out


def test_cli_human_format(capsys):
    code, out, _ = run(["info", FIXDIR / "N3.mon"], capsys)
    assert code == 0
    assert out.startswith("mono info\n")
    assert "  order: 3\n" in out
    assert "elapsed:" in out


def test_cli_input_errors_exit_2(tmp_path, capsys):
    code, _, err = run(["info", tmp_path / "missing.mon"], capsys)
    assert code == 2 and "error:" in err
    bad = tmp_path / "bad.mon"
    bad.write_text("elements: x y\nidentity: x\ntable:\ny x\nx x\n")
    code, _, err = run(["info", bad], capsys)
    assert code == 2 and "not associative" in err
    latin1 = tmp_path / "latin1.mon"
    latin1.write_bytes(b"elements: 1\xff\nidentity: 1\ntable:\n1\n")
    code, out, err = run(["info", latin1], capsys)
    assert code == 2 and out == ""
    assert err == f"error: {latin1}: not valid UTF-8 at byte 11\n"
    code, _, err = run(["cut", FIXDIR / "Z2.mon", "-n", "0", "--map", "a=g",
                        "a"], capsys)
    assert code == 2
    code, _, err = run(["cut", FIXDIR / "Z2.mon", "-n", "1", "--map", "a=zz",
                        "a"], capsys)
    assert code == 2
    code, _, err = run(["nonsense"], capsys)
    assert code == 2
    # an exponent past int()'s 4300-digit limit
    code, out, err = run(["shadow", FIXDIR / "Z2.mon", "--map", "a=g",
                          "--alphas", "a^" + "9" * 5000, "--ideals", "a"], capsys)
    assert code == 2 and out == ""
    assert err == ("error: term syntax error at position 2: "
                   "exponent has too many digits\n")


def test_cli_error_line_escapes_non_utf8_argv_bytes(tmp_path, monkeypatch):
    # the file name's \xff byte reaches argv as a lone surrogate; the error
    # line echoes it as \xNN, so it encodes on a strict UTF-8 stderr
    bad = tmp_path / "bad\udcff.mon"
    bad.write_bytes(b"elements: 1\xff\nidentity: 1\ntable:\n1\n")
    stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
    monkeypatch.setattr(sys, "stderr", stderr)
    assert cli_dispatch(["info", str(bad)]) == 2
    stderr.flush()
    assert stderr.buffer.getvalue() == (
        f"error: {tmp_path}/bad\\xff.mon: not valid UTF-8 at byte 11\n".encode())


def test_cli_usage_error_escapes_non_utf8_argv_bytes(monkeypatch):
    # argparse's own usage error echoes the argument; on a strict UTF-8
    # stderr the lone surrogate must arrive as \xNN
    stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
    monkeypatch.setattr(sys, "stderr", stderr)
    assert cli_dispatch(["info", str(FIXDIR / "N3.mon"), "\udcff"]) == 2
    stderr.flush()
    err = stderr.buffer.getvalue().decode()
    assert err.endswith("mono: error: unrecognized arguments: \\xff\n")


def test_cli_deeply_nested_term_exits_2(capsys):
    term = "(" * 5000 + "a" + ")" * 5000
    code, out, err = run(["shadow", FIXDIR / "Z2.mon", "--map", "a=g",
                          "--alphas", term, "--ideals", "a"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: term syntax error at position 100:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, size", [
    # without the cap this cut ran for minutes
    (["cut", FIXDIR / "B21.mon", "-n", "100", "--map", "a=a,b=b", "abab"], 4416325),
    # the first expansion profile over the cap
    (["expand", FIXDIR / "B21.mon", "-n", "100", "--gens", "a=a,b=b"], 171700),
], ids=["cut", "expand"])
def test_cli_huge_cut_profile_exits_2(capsys, argv, size):
    t0 = time.perf_counter()
    code, out, err = run(argv + ["--format", "machine"], capsys)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert err == f"error: cut profile of {size} tuples exceeds cap of 100000\n"


def test_cli_long_replay_does_not_hang(capsys):
    # the shape of the benchmark's Z2 replay jobs at (L, n) = (21, 11): every
    # w part holds an odd number of a's; enumerating cut vectors in order
    # would try millions before the first match
    ws = ["a" * 11] + ["a"] * 10
    t0 = time.perf_counter()
    code, out, err = run(["replay", FIXDIR / "Z2.mon", "-n", "11", "--map", "a=g,b=1",
                          "--u", "aaaa,aaaaa,a,aaaaaa,aaaaa", "--w", ",".join(ws),
                          "--format", "machine"], capsys)
    assert time.perf_counter() - t0 < 2
    assert code == 0 and err == ""
    assert f"v_parts={','.join(ws[1:] + ws[:1])}\n" in out


def test_cli_huge_tgen_degree_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.tgen"
    path.write_text("degree: 1000000000\n")
    code, out, err = run(["from-tgen", path, "--format", "machine"], capsys)
    assert code == 2 and out == ""
    assert err == "error: degree exceeds cap of 1024\n"


def test_tgen_degree_at_cap_is_accepted():
    M, _ = parse_tgen("degree: 1024\n")
    assert M.order == 1


def test_cli_bad_mono_cap_exits_2(monkeypatch, capsys):
    argv = ["expand", FIXDIR / "Z2.mon", "-n", "2", "--gens", "a=g"]
    for raw in ("abc", "0", "\udcff"):
        monkeypatch.setenv("MONO_CAP", raw)
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err == f"error: MONO_CAP must be a positive integer, got {raw!r}\n"


def test_cli_removed_flags_are_rejected(capsys):
    for flag in ("--jobs", "--seed"):
        code, out, err = run(["info", FIXDIR / "N3.mon", flag, "2"], capsys)
        assert code == 2 and out == ""
        assert f"unrecognized arguments: {flag} 2" in err


def test_cli_import_loads_no_thread_machinery():
    # nor pathlib and typing, which pull in urllib.parse, ipaddress and
    # fnmatch, nor dataclasses, which pulls in inspect, ast, dis and tokenize,
    # nor argparse, which pulls in re, enum and gettext: not at import, and
    # not for a well-formed command of any subcommand either
    forbidden = {"concurrent.futures", "threading", "pathlib", "typing",
                 "urllib.parse", "ipaddress", "fnmatch", "dataclasses",
                 "inspect", "ast", "dis", "tokenize", "argparse", "re",
                 "gettext", "enum"}
    argvs = [[str(a) for a in argv] + ["--format", "machine"] for argv in COMMANDS]
    assert sorted(argv[0] for argv in argvs) == sorted(_COMMANDS)
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import monoidkit.cli; "
             f"loaded = lambda: sorted({forbidden!r} & set(sys.modules)); "
             "print(loaded()); "
             f"codes = [monoidkit.cli.cli_dispatch(a) for a in {argvs!r}]; "
             "print(codes); print(loaded())")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", probe, str(SRCDIR)],
                         capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    assert lines[0] == "[]"
    assert lines[-2:] == [str([0] * len(argvs)), "[]"]


def _has_builtin_sha256() -> bool:
    for name in ("_sha2", "_sha256"):
        try:
            __import__(name)
            return True
        except ImportError:
            pass
    return False


def test_cli_import_loads_no_openssl_functools_or_collections():
    # the digest comes from the interpreter's own SHA-256 module, not from
    # hashlib, which loads OpenSSL's _hashlib; functools, collections and os
    # are not used at all (MONO_CAP is read from posix.environ).  Each command
    # runs in a fresh interpreter, since a module once loaded stays loaded.
    forbidden = {"functools", "collections", "collections.abc", "os"}
    if _has_builtin_sha256():
        forbidden |= {"hashlib", "_hashlib"}
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import monoidkit.cli; "
             f"names = {sorted(forbidden)!r}; "
             "loaded = lambda: [n for n in names if n in sys.modules]; "
             "print(loaded()); print(monoidkit.cli.cli_dispatch(sys.argv[2:])); "
             "print(loaded())")
    assert sorted(argv[0] for argv in COMMANDS) == sorted(_COMMANDS)
    for argv in COMMANDS:
        out = subprocess.run(
            [sys.executable, "-I", "-S", "-c", probe, str(SRCDIR),
             *map(str, argv), "--format", "machine"],
            capture_output=True, text=True, check=True).stdout
        lines = out.splitlines()
        assert [lines[0], *lines[-2:]] == ["[]", "0", "[]"], argv


DIGEST_INPUTS = [path.read_bytes() for path in sorted(FIXDIR.iterdir())] + [
    b"", b"\xff\xfe a\x80\n\xc3("]


def test_digest_is_the_sha256_prefix():
    for data in DIGEST_INPUTS:
        assert _digest(data) == hashlib.sha256(data).hexdigest()[:12]


def test_digest_falls_back_to_hashlib():
    # without the interpreter's own SHA-256 module, hashlib's sha256 is used
    probe = ("import sys; sys.modules['_sha256'] = sys.modules['_sha2'] = None; "
             "sys.path.insert(0, sys.argv[1]); import monoidkit.cli as c; "
             "print('hashlib' in sys.modules); "
             f"print([c._digest(d) for d in {DIGEST_INPUTS!r}])")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", probe, str(SRCDIR)],
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == [
        "True", str([hashlib.sha256(d).hexdigest()[:12] for d in DIGEST_INPUTS])]


def test_cli_help_and_usage_errors_come_from_argparse():
    def mono(*argv):
        return run_mono(argv, text=True, env={"COLUMNS": "80"})

    usage = "usage: mono info [-h] [--format {human,machine}] file\n"
    proc = mono("info", "--help")
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith(usage + "\n")
    assert "  -h, --help            show this help message and exit\n" in proc.stdout
    proc = mono("info")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (
        usage + "mono info: error: the following arguments are required: file\n")


HELP = (("-h", "--help"), False, 0, "show this help message and exit")
FORMAT = (("--format",), False, None, "output rendering (default human)")
FILE = ("file", True, None, None)
ARITY = (("-n",), True, None, "arity")
LETTER_MAP = "letter map a=elem,b=elem"
WRITE_MON = (("-o", "--out"), False, None, "write the monoid as .mon")
# each subcommand's help and its actions as (option strings or dest,
# required, nargs, help), in the order the parser holds them
PARSER_SHAPE = {
    "info": ("order, aperiodicity, idempotents, minimal ideal",
             [HELP, FORMAT, FILE]),
    "greens": ("Green's relation classes and the J-order", [HELP, FORMAT, FILE]),
    "ideal": ("generated ideal with idempotency and primality",
              [HELP, FORMAT, FILE,
               ("elements", True, "+", "generator element names")]),
    "cut": ("cut profile of a word at a given arity",
            [HELP, FORMAT, FILE, ARITY, (("--map",), True, None, LETTER_MAP),
             ("word", True, None, None)]),
    "expand": ("build the cut-profile expansion",
               [HELP, FORMAT, FILE, ARITY, (("--gens",), True, None, LETTER_MAP),
                (("-o", "--out"), False, None,
                 "write the expansion as .mon plus sidecar"),
                (("--table",), False, 0, "include the full table")]),
    "lemma": ("locate a part of one factorization inside another",
              [HELP, FORMAT, (("--u",), True, None, "comma-separated u parts"),
               (("--v",), True, None, "comma-separated v parts")]),
    "replay": ("re-factor matching part images and locate a factor",
               [HELP, FORMAT, FILE, ARITY, (("--map",), True, None, LETTER_MAP),
                (("--u",), True, None, "comma-separated u parts"),
                (("--w",), True, None, "comma-separated w parts")]),
    "shadow": ("finite shadow checks (stability sweep, or ideal-product "
               "membership with --alphas/--ideals)",
               [HELP, FORMAT, FILE, (("--map",), False, None, LETTER_MAP),
                (("--alphas",), False, None, "';'-separated omega terms"),
                (("--ideals",), False, None,
                 "'|'-separated ideals, ',' between generators")]),
    "from-dfa": ("transition monoid of a .dfa file", [HELP, FORMAT, FILE, WRITE_MON]),
    "from-tgen": ("transformation monoid generated by a .tgen file",
                  [HELP, FORMAT, FILE, WRITE_MON]),
}


def test_cli_parser_shape():
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    helps = {a.dest: a.help for a in sub._choices_actions}
    shape = {name: (helps[name],
                    [(tuple(a.option_strings) or a.dest, a.required, a.nargs, a.help)
                     for a in sp._actions])
             for name, sp in sub.choices.items()}
    assert shape == PARSER_SHAPE
    assert list(shape) == list(PARSER_SHAPE)


def test_cli_shadow_flag_validation(capsys):
    code, _, err = run(["shadow", FIXDIR / "N3.mon", "--alphas", "a"], capsys)
    assert code == 2
    code, _, err = run(["shadow", FIXDIR / "N3.mon", "--alphas", "a",
                        "--ideals", "a"], capsys)
    assert code == 2 and "--map" in err


def test_dfa_ingestion_composes(tmp_path, capsys):
    # the transition monoid feeds every downstream command unchanged
    out = tmp_path / "ff.mon"
    code, _, _ = run(["from-dfa", FIXDIR / "flipflop.dfa", "-o", out,
                      "--format", "machine"], capsys)
    assert code == 0
    for argv in (["greens", out],
                 ["expand", out, "-n", "2", "--gens", "a=a,b=b"],
                 ["shadow", out]):
        code, _, _ = run(argv + ["--format", "machine"], capsys)
        assert code == 0


def test_cli_machine_output_is_reproducible(capsys):
    for argv in COMMANDS + [["shadow", FIXDIR / "N3.mon", "--map", "a=a",
                             "--alphas", "a;a", "--ideals", "a^w|a^w"]]:
        argv = argv + ["--format", "machine"]
        code1, out1, _ = run(argv, capsys)
        code2, out2, _ = run(argv, capsys)
        assert out1 == out2
        assert code1 == code2


def test_cli_memory_error_exits_2():
    # an expansion that peaks near 290 MB, under a 100 MB address-space limit
    # set in the child only; MemoryError is one error line and exit 2
    pytest.importorskip("resource")
    proc = run_mono(["expand", "fixtures/flipflop.mon", "-n", "6", "--gens",
                     "a=s,b=r", "--format", "machine"], mem_kb=100 << 10, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: out of memory\n"


def test_cli_cut_count_too_long_to_print_exits_2():
    # 1 + C(n, 2) tuples at an arity of 3000 digits: a 6000-digit count,
    # which str() refuses; the error line bounds it instead of a traceback
    proc = run_mono(["cut", "fixtures/Z2.mon", "-n", "9" * 3000, "--map", "a=g",
                     "aa", "--format", "machine"], timeout=60, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("error: cut profile of more than 10^5999 tuples "
                           "exceeds cap of 100000\n")

def test_cli_memory_error_while_writing_the_report_exits_2(monkeypatch, capsys):
    class Full:
        def write(self, text):
            raise MemoryError

    monkeypatch.setattr(sys, "stdout", Full())
    assert cli_dispatch(["info", str(FIXDIR / "N3.mon"), "--format", "machine"]) == 2
    assert capsys.readouterr().err == "error: out of memory\n"


def os_error_line(code):
    return f"error: [Errno {code}] {os.strerror(code)}\n"


@pytest.mark.parametrize("path, line", [
    # an empty path names no file: not a report that leaves out `out=`
    ("", "error: [Errno 2] No such file or directory: ''\n"),
    ("/dev/full", os_error_line(errno.ENOSPC)),
], ids=["empty", "full"])
def test_cli_out_that_cannot_be_written_exits_2(path, line):
    # a child process, so that stderr is the whole of what it printed
    if path and not os.path.exists(path):
        pytest.skip(f"no {path}")
    for argv in (["expand", "fixtures/flipflop.mon", "-n", "3", "--gens", "a=s,b=r"],
                 ["from-tgen", "fixtures/flipflop.tgen"],
                 ["from-dfa", "fixtures/swap.dfa"]):
        proc = run_mono([*argv, "-o", path, "--format", "machine"])
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, b"", line.encode()), argv


def test_cli_failed_stdout_exits_2(monkeypatch, capsys):
    class Gone:
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    class Full:
        def write(self, text):
            return len(text)

        def flush(self):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    for stdout, line in ((Gone(), os_error_line(errno.EPIPE)),
                         (Full(), os_error_line(errno.ENOSPC)),
                         (None, "error: stdout is closed\n")):
        monkeypatch.setattr(sys, "stdout", stdout)
        assert cli_dispatch(["info", str(FIXDIR / "N3.mon"), "--format", "machine"]) == 2
        assert capsys.readouterr().err == line

    # a stderr that fails as well: nothing is left to say why, and the
    # report or the input error still exits 2 without raising
    class Broken:
        def write(self, text):
            raise OSError(errno.EIO, os.strerror(errno.EIO))

    for stderr in (Broken(), None):
        monkeypatch.setattr(sys, "stderr", stderr)
        for argv in (["info", str(FIXDIR / "N3.mon"), "--format", "machine"],
                     ["info", str(FIXDIR / "missing.mon")], ["info"]):
            assert cli_dispatch(argv) == 2


def test_cli_long_replay_exits_2_at_its_cap(capsys):
    a = "a" * 20000
    t0 = time.perf_counter()
    code, out, err = run(["replay", FIXDIR / "Z2.mon", "-n", "2", "--map", "a=g",
                          "--u", a, "--w", a + ",", "--format", "machine"], capsys)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert err == ("error: replay of 20000 letters in 2 parts: n*L^2 exceeds "
                   "cap of 100000000\n")


def documented_argvs():
    """The argvs of the goldens, the other CLI tests and the README examples."""
    argvs = [[str(a) for a in argv] for argv in COMMANDS]
    argvs += [argv + ["--format", "machine"] for argv in argvs]
    argvs += [
        ["ideal", str(FIXDIR / "N3.mon"), "0", "--format", "machine"],
        ["shadow", str(FIXDIR / "N3.mon"), "--map", "a=a", "--alphas", "a;a",
         "--ideals", "a^w|a^w", "--format", "machine"],
        ["expand", str(FIXDIR / "Z2.mon"), "-n", "2", "--gens", "a=g", "-o", "x.mon",
         "--format", "machine"],
        ["expand", str(FIXDIR / "Z2.mon"), "-n", "2", "--gens", "a=g", "--table",
         "--format", "machine"],
        ["from-dfa", str(FIXDIR / "flipflop.dfa"), "-o", "x.mon", "--format", "machine"],
        ["from-tgen", str(FIXDIR / "flipflop.tgen"), "--out", "x.mon"],
        ["replay", str(FIXDIR / "Z2.mon"), "-n", "11", "--map", "a=g,b=1",
         "--u", "aaaa,aaaaa,a,aaaaaa,aaaaa", "--w", "aaaaaaaaaaa" + ",a" * 10,
         "--format", "machine"],
        ["info", str(FIXDIR / "N3.mon"), "--format=machine"],
        ["cut", str(FIXDIR / "Z2.mon"), "-n", "2", "--map=a=g,b=g", "ab",
         "--format=machine"],
        ["lemma", "--u=ab,a", "--v=a,b,a", "--format=machine"],
        ["expand", str(FIXDIR / "Z2.mon"), "-n", "2", "--gens=a=g", "--out=x.mon",
         "--format=machine"],
    ]
    for line in (ROOT / "README.md").read_text().splitlines():
        line = line.removeprefix("$ ")
        if line.startswith("mono "):
            argvs.append(shlex.split(line, comments=True)[1:])
    return argvs


# `mono` as a fresh process: -I -S launches in about a third of -m's time
MONO = [sys.executable, "-I", "-S", "-c",
        f"import sys; sys.path.insert(0, {str(SRCDIR)!r}); "
        "from monoidkit.cli import main; main()"]
# each environment as its shell redirection, the error line a report
# written into it gives, and whether stderr is lost; "broken-pipe" hands
# stdout a pipe whose reader has gone
STREAMS = {
    "stdout-closed": (">&-", "error: stdout is closed\n", False),
    "stderr-closed": ("2>&-", None, True),
    "both-closed": (">&- 2>&-", "error: stdout is closed\n", True),
    "stdout-full": (">/dev/full", os_error_line(errno.ENOSPC), False),
    "stderr-full": ("2>/dev/full", None, True),
    "broken-pipe": ("", os_error_line(errno.EPIPE), False),
}


def stream_argvs(command):
    """A documented report, an input error and the help of one command."""
    report = next(argv for argv in documented_argvs()
                  if argv[0] == command and "machine" in argv)
    if command == "lemma":
        error = ["lemma", "--u", "ab", "--v", "ba"]
    else:
        error = [str(FIXDIR / "missing") if a.startswith(str(FIXDIR)) else a
                 for a in report]
    return report, error, [command, "--help"]


def start_mono(argv, streams):
    """Launch `mono` with its streams set up as STREAMS names them."""
    cmd = ["sh", "-c", f'exec "$@" {STREAMS[streams][0]}', "sh", *MONO, *argv]
    if streams != "broken-pipe":
        return subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                encoding="utf-8")
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.Popen(cmd, stdout=write, stderr=subprocess.PIPE,
                                encoding="utf-8")
    finally:
        os.close(write)


@pytest.mark.parametrize("streams", list(STREAMS))
@pytest.mark.parametrize("command", list(_COMMANDS))
def test_cli_output_streams(command, streams, monkeypatch, capsys):
    """Every command keeps the exit-code contract whatever its streams: the
    code it gives with normal streams, or 2 where a stream it writes fails,
    with stderr, where it can be read, the same one `error:` line."""
    _, failed_stdout, stderr_lost = STREAMS[streams]
    if "full" in streams and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    monkeypatch.setenv("COLUMNS", "80")   # help wraps alike in both runs
    argvs = stream_argvs(command)
    # the three launches overlap; the normal runs are in process
    for argv, proc in [(argv, start_mono(argv, streams)) for argv in argvs]:
        code, out, err = run(argv, capsys)
        assert err == "" or err.startswith("error: ") and err.count("\n") == 1
        stdout, stderr = proc.communicate()
        line = failed_stdout if out else None
        assert proc.returncode == (2 if line or stderr_lost and err else code), argv
        if not stderr_lost:
            assert stderr == (line or err), argv
        if failed_stdout is None:
            assert stdout == out, argv


@pytest.mark.parametrize("case", ["directory", "no-permission"])
def test_cli_unreadable_input(case, tmp_path):
    """An input that cannot be read is an input error: exit 2 with one
    `error:` line.  Root reads a file whatever its mode, so the permission
    case runs only as another user."""
    if case == "directory":
        path, code = tmp_path, errno.EISDIR
    else:
        if os.geteuid() == 0:
            pytest.skip("root reads a file without read permission")
        path, code = tmp_path / "locked.mon", errno.EACCES
        path.write_bytes((FIXDIR / "N3.mon").read_bytes())
        path.chmod(0)
    proc = subprocess.run([*MONO, "info", str(path)], capture_output=True,
                          encoding="utf-8")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: [Errno {code}] {os.strerror(code)}: {str(path)!r}\n"


def test_plain_parser_takes_every_documented_argv():
    parser = _build_parser()
    argvs = documented_argvs()
    assert len(argvs) > 30
    for argv in argvs:
        args = _parse_plain(argv)
        assert args is not None, argv
        assert vars(args) == vars(parser.parse_args(argv))


def plain_corpus(rng: random.Random, count: int):
    """Argvs built from the command table's own tokens: a well-formed
    command with its options in a random order, then up to three edits that
    duplicate, drop, move or swap tokens, or insert one of the forms the
    plain parser must decline or read as argparse does (abbreviations,
    --x=y, -n=3, -n3, --, -, '', -1, -h, a non-UTF-8 byte, an option of
    another command)."""
    options = sorted({f for _, _, arguments in _COMMANDS.values()
                      for flags, _ in arguments for f in flags if f.startswith("-")})
    strange = ["--for", "--fo", "--ma", "--ta", "--ou", "--al", "--id", "--ge",
               "--format=machine", "--map=a=g", "--format=", "--format=bogus",
               "--map=", "--map=-x", "--table=x", "--out=x.mon", "-n=3", "-o=x",
               "-n3", "-o-", "--", "-", "", "-1",
               "-h", "--help", "\udcff", "a b", "x", *_COMMANDS, *options]
    values = {"-n": ["2", "0", "12", " 3", "x", "-1", "\u0663"],
              "--format": ["human", "machine", "bogus", "mach"]}
    words = ["a=g", "ab,ba", "fixtures/N3.mon", "0", "a^w|a^w", "\udcff", ""]
    for _ in range(count):
        name = rng.choice(list(_COMMANDS))
        groups, positionals = [], []
        for flags, keywords in _COMMANDS[name][2]:
            pool = values.get(flags[0], words)
            if not flags[0].startswith("-"):
                k = rng.randint(1, 3) if keywords.get("nargs") == "+" else 1
                positionals += [rng.choice(words) for _ in range(k)]
            elif keywords.get("required") or rng.random() < 0.5:
                flag = rng.choice(flags)
                if keywords.get("action") == "store_true":
                    groups.append([flag])
                else:
                    groups.append([flag, pool[0] if rng.random() < 0.7
                                   else rng.choice(pool)])
        rng.shuffle(groups)
        cuts = sorted(rng.randint(0, len(groups)) for _ in positionals)
        for cut_at, token in reversed(list(zip(cuts, positionals))):
            groups.insert(cut_at, [token])
        argv = [name] + [t for group in groups for t in group]
        for _ in range(rng.choice((0, 1, 2, 2, 3))):
            i, j = rng.randrange(len(argv) + 1), rng.randrange(1, len(argv) + 1)
            edit = rng.randrange(5)
            if edit == 0:
                argv.insert(i, rng.choice(strange))
            elif edit == 1 and len(argv) > 1:
                del argv[j - 1]
            elif edit == 2:
                argv.insert(i, argv[j - 1])
            elif edit == 3:
                argv.insert(i, argv.pop(j - 1))
            else:
                argv[i - 1:i + 1] = argv[i - 1:i + 1][::-1]
        yield argv


def test_plain_parser_agrees_with_argparse():
    # whatever the plain parser takes, argparse parses to the same
    # attributes; it takes no token starting with '-' but an exact option
    # string of the command or --x=y for an exact --x, so abbreviations go
    # to argparse
    rng = random.Random(int(os.environ.get("MONO_SEED", "0")))
    parser = _build_parser()
    accepted = 0
    for argv in plain_corpus(rng, 100_000):
        args = _parse_plain(argv)
        if args is None:
            continue
        accepted += 1
        options = {f for flags, _ in _COMMANDS[argv[0]][2] for f in flags}
        assert all(t in options or t.startswith("--") and t.partition("=")[0] in options
                   for t in argv[1:] if t.startswith("-")), argv
        try:
            expected = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"argparse rejects {argv!r}, which the plain parser took")
        assert vars(args) == vars(expected), argv
    assert accepted > 10_000
