"""The pinned end-to-end checks: `mono` in a child process on large and
adversarial inputs, each under its own time and memory bound.

Each row is an argv, the exit code, the sha256 of stdout or the exact
stderr (one `error:` line, or the sha256 of a line too long to quote), a
timeout in seconds and an address-space limit in KiB.  The bytes were
recorded from `mono` and are the contract: a change to any of them is a
change to the program's output.  An exit 2 must also leave exactly one
`error:` line, never a traceback.  `{tmp}` in an argv names the module's
scratch directory, where the set-up writes M1965 (`expand fixtures/T2.mon
-n 4`, order 1965), the 400-element `late.mon`, `T4.mon` and `huge.tgen`.
"""

import hashlib
import os
import random

import pytest

from helpers import run_mono

# 1800 letters, at the benchmark's cut arities
LONG_WORD = "aab" * 300 + "bba" * 300
N3000 = "9" * 3000
K4300 = "9" * 4300
M1965 = "{tmp}/M1965.mon"


def row(name, argv, code=0, out=None, err=None, timeout=None, mem_kb=None, files=()):
    return pytest.param(argv, code, out, err, timeout, mem_kb, dict(files), id=name)


ROWS = [
    # Green's relations and ideals on the 1965-element expansion
    row("greens-M1965", ["greens", M1965], timeout=60,
        out="7a8360751eaf4a1160bce80840edd90999474e0f114d4ecf99f002bbad441f90"),
    row("info-M1965", ["info", M1965], timeout=60,
        out="cad686e29a6febfc7fa8ca17bd4f1e785e061acac1f3673efc6ceb9c8c206008"),
    row("ideal-M1965-P1", ["ideal", M1965, "P1"], timeout=60,
        out="d227a9702bfa2fad1b0a06b3945bf6d9d5a1b712f962409a2896bcdf139d8015"),
    row("ideal-M1965-P5", ["ideal", M1965, "P5"], timeout=60,
        out="5ac66b928c5455d037ac755dbfe1137d4f3f23c5e13a002ba1640c9e953d79b5"),
    row("shadow-M1965", ["shadow", M1965, "--map", "a=P1,b=P2,c=P5", "--alphas",
                         "a;b", "--ideals", "a|b,c|c"], timeout=60,
        out="1f259bce3090d7a74b433535aacd1e579ba1155b5f3f7b17c47654fd51d597ee"),
    row("sweep-M1965", ["shadow", M1965], timeout=60,
        out="54092ea6be3e1238f3881e1de593836d2936b6181bac10f22332d0d617a9e1e5"),
    # the flip-flop expansion at n = 6 (order 3121): stored as sequence
    # sets it fits in 160 MB, spread into tuples as well it needed 240 MB
    row("expand-FF6", ["expand", "fixtures/flipflop.mon", "-n", "6", "--gens",
                       "a=s,b=r"], timeout=60, mem_kb=160000,
        out="9f42704fd9832f666f37ddadbb7f1c865db743ad5bd0f5a2ba3f56f6318336ea"),
    row("expand-FF6-table-o", ["expand", "fixtures/flipflop.mon", "-n", "6", "--gens",
                               "a=s,b=r", "--table", "-o", "{tmp}/FF6.mon"], timeout=60,
        out="780bdc01efb4b52ef4be6d9a53fd3366c5838ca714f9ca513994c2915295b2fd",
        files={"FF6.mon": "c00d76f5b200d1dc8d3b83e8e5c697f0f39a3f140226d4f4326df3aa73b3e27c",
               "FF6.mon.map":
               "c9eab2ecdbab15eb83c4e75163c42cc261c7962c550ab74122d86a963561cbac"}),
    # a null monoid with identity whose one violation, z399*z398 = z398, is
    # in the last row: naming it scans every row pair before it
    row("info-late", ["info", "{tmp}/late.mon"], 2, timeout=20,
        err="error: not associative: (z399*z399)*z398 != z399*(z399*z398)"),
    # T4 (256 elements) from a cycle, a transposition and a collapse
    row("info-T4", ["info", "{tmp}/T4.mon"],
        out="f4ff691b23c0b4ea3e9b274aec0b264de58719e7f213b8a7a7654f6c0b713678"),
    row("greens-T4", ["greens", "{tmp}/T4.mon"],
        out="605b7f641cdb8c5b2159100578648248553ffcba12b4fb043733898286c42b7d"),
    row("sweep-T4", ["shadow", "{tmp}/T4.mon"], timeout=10),
    # adversarial inputs stop at their caps
    row("cut-B21-n100", ["cut", "fixtures/B21.mon", "-n", "100", "--map", "a=a,b=b",
                         "abab"], 2, timeout=10),
    row("cut-Z2-n3000digits", ["cut", "fixtures/Z2.mon", "-n", N3000, "--map", "a=g",
                               "aa"], 2, timeout=10,
        err="error: cut profile of more than 10^5999 tuples exceeds cap of 100000"),
    row("cut-Z2-n3000digits-unit", ["cut", "fixtures/Z2.mon", "-n", N3000, "--map",
                                    "a=g,b=1", "b"], 2, timeout=10,
        err=f"error: cut profile of 1 tuples of {N3000} entries exceeds cap of "
            "10000000 entries"),
    row("expand-Z2-n100000", ["expand", "fixtures/Z2.mon", "-n", "100000", "--gens",
                              "a=g"], 2, timeout=10, mem_kb=200000,
        err="error: cut profile of 100000 tuples of 100000 entries exceeds cap of "
            "10000000 entries"),
    # 10-18 s on 2 cores (Python 3.11), all of it the fold, which runs to the
    # end of the word before it counts; a fold that stops at the cap will
    # change this line
    row("cut-B21-n20", ["cut", "fixtures/B21.mon", "-n", "20", "--map", "a=a,b=b",
                        "".join(random.Random(0).choices("ab", k=1000))], 2, timeout=60,
        err="error: cut profile of 196721723701615 tuples exceeds cap of 100000"),
    row("cut-FF-n30", ["cut", "fixtures/flipflop.mon", "-n", "30", "--map", "a=s,b=r",
                       "ab" * 150], 2, timeout=10, mem_kb=200000,
        err="error: cut profile of 102945566047324 tuples exceeds cap of 100000"),
    # the count past the cap at an arity of 3000 digits: one big-integer
    # step per sequence length, not a fresh binomial for each
    row("cut-FF-n3000digits", ["cut", "fixtures/flipflop.mon", "-n", N3000, "--map",
                               "a=s,b=r", "ab" * 150], 2, timeout=20,
        err="error: cut profile of more than 10^899385 tuples exceeds cap of 100000"),
    row("from-tgen-huge", ["from-tgen", "{tmp}/huge.tgen"], 2, timeout=10),
    row("shadow-Z2-5000digits", ["shadow", "fixtures/Z2.mon", "--map", "a=g", "--alphas",
                                 "a^" + "9" * 5000, "--ideals", "a"], 2, timeout=10),
    row("replay-Z2-a20000", ["replay", "fixtures/Z2.mon", "-n", "2", "--map", "a=g",
                             "--u", "a" * 20000, "--w", "a" * 20000 + ","], 2, timeout=10),
    row("replay-Z2-a21", ["replay", "fixtures/Z2.mon", "-n", "11", "--map", "a=g,b=1",
                          "--u", "aaaa,aaaaa,a,aaaaaa,aaaaa",
                          "--w", "aaaaaaaaaaa,a,a,a,a,a,a,a,a,a,a"], timeout=10),
    # 400 parts, 398 of them empty: replay folds both words and spreads
    # neither, so the entries cap that stops `cut` on the same word and
    # arity must not stop it
    row("replay-Z2-n400", ["replay", "fixtures/Z2.mon", "-n", "400", "--map", "a=g",
                           "--u", "aa", "--w", "a,a" + "," * 398], timeout=10,
        out="69f63f803dcda5639a18020e2465469799dd9554e4a11a27eadee79dfbfe1819"),
    row("cut-Z2-n400", ["cut", "fixtures/Z2.mon", "-n", "400", "--map", "a=g", "aa"], 2,
        timeout=10, err="error: cut profile of 79801 tuples of 400 entries exceeds cap of "
                        "10000000 entries"),
    # exponents of 4300 digits, the longest the term parser reads
    row("shadow-Z3-4300digits", ["shadow", "fixtures/Z3.mon", "--map", "a=g,b=g2",
                                 "--alphas", f"a^{K4300};(ab)^w",
                                 "--ideals", f"b^{K4300}|a"], timeout=10,
        out="73225099b4d031706eea029f66a426bc1eccaaf3c85abd39e96290390cdb62de"),
    # cut profiles of long words
    row("cut-B21-n5-1800", ["cut", "fixtures/B21.mon", "-n", "5", "--map", "a=a,b=b",
                            LONG_WORD], timeout=20,
        out="cd16c6b28fed64856aa2972a3eedc8baaec674e7134c1146fb8b627d338eac08"),
    row("cut-FF-n8-1800", ["cut", "fixtures/flipflop.mon", "-n", "8", "--map", "a=s,b=r",
                           LONG_WORD], timeout=20,
        out="62ef7e7fe3d8439d7abac842988cbc8edfa75a6e7267eb60a34b5fd4c70dc9d6"),
    row("cut-T2-n6-1800", ["cut", "fixtures/T2.mon", "-n", "6", "--map", "a=s,b=c1",
                           LONG_WORD], timeout=20,
        out="f7bda5cd0f3f9ed9dd35adceb5137d2bd033c2a2fdab8da0d27d12428c56ed98"),
    row("cut-Z2-n1000-a1000", ["cut", "fixtures/Z2.mon", "-n", "1000", "--map", "a=g",
                               "a" * 1000], 2, timeout=30,
        err="c00e4981a4194867d9c2562949aa6e04463876acc14774b0b58f19eccea65154"),
    # an (L+1)^2 table of segment images would need more than 200 MB here
    row("replay-Z2-a5000", ["replay", "fixtures/Z2.mon", "-n", "2", "--map", "a=g",
                            "--u", "a" * 5000, "--w", "a" * 5000 + ","],
        timeout=10, mem_kb=200000),
]


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    """M1965, late.mon, T4.mon and huge.tgen, written once per module."""
    tmp = tmp_path_factory.mktemp("pinned")
    n = 400
    e = ["1", "0"] + [f"z{i}" for i in range(2, n)]
    t = [e] + [[x] + ["0"] * (n - 1) for x in e[1:]]
    t[-1][-2] = e[-2]
    (tmp / "late.mon").write_text(f"elements: {' '.join(e)}\nidentity: 1\ntable:\n"
                                  + "".join(" ".join(r) + "\n" for r in t))
    (tmp / "T4.tgen").write_text(
        "degree: 4\ngen c: 2 3 4 1\ngen t: 2 1 3 4\ngen k: 1 1 3 4\n")
    (tmp / "huge.tgen").write_text("degree: 1000000000\n")
    for argv in (["expand", "fixtures/T2.mon", "-n", "4", "--gens", "a=s,b=c1",
                  "-o", tmp / "M1965.mon"],
                 ["from-tgen", tmp / "T4.tgen", "-o", tmp / "T4.mon"]):
        assert run_mono([*argv, "--format", "machine"]).returncode == 0
    return tmp


def sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("argv, code, out, err, timeout, mem_kb, files", ROWS)
def test_pinned(argv, code, out, err, timeout, mem_kb, files, tmp):
    if mem_kb is not None:
        pytest.importorskip("resource")
    argv = [a.replace("{tmp}", str(tmp)) for a in argv]
    proc = run_mono([*argv, "--format", "machine"], timeout=timeout, mem_kb=mem_kb)
    assert proc.returncode == code, proc.stderr[-300:]
    if code == 2:
        assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1
    if out is not None:
        # the `out=` line names the scratch directory
        stdout = b"".join(line for line in proc.stdout.splitlines(keepends=True)
                          if not line.startswith(b"out="))
        assert sha256(stdout) == out
    if err is not None:
        assert (proc.stderr == f"{err}\n".encode() if err.startswith("error: ")
                else sha256(proc.stderr) == err)
    for name, digest in files.items():
        assert sha256((tmp / name).read_bytes()) == digest, name


def test_error_line_echoes_a_non_utf8_file_name(tmp):
    # the file name's \xff byte goes to argv as bytes; its content is not
    # UTF-8 either, and the error line echoes the byte as \xff
    path = os.fsencode(tmp) + b"/bad\xff.mon"
    with open(path, "wb") as f:
        f.write(b"elements: 1\xff\nidentity: 1\ntable:\n1\n")
    proc = run_mono(["info", path])
    assert proc.returncode == 2
    assert proc.stderr == (b"error: " + os.fsencode(tmp)
                           + b"/bad\\xff.mon: not valid UTF-8 at byte 11\n")


def test_expansion_does_not_depend_on_the_order_of_its_letters(tmp):
    # T2 at n = 3 with the map listed as a,b and as b,a: the written tables
    # and their sidecars are byte-identical, and info and greens re-validate
    # the table (associativity, identity)
    for name, gens in (("ab", "a=s,b=c1"), ("ba", "b=c1,a=s")):
        assert run_mono(["expand", "fixtures/T2.mon", "-n", "3", "--gens", gens, "-o",
                         tmp / f"{name}.mon", "--format", "machine"]).returncode == 0
    for suffix in (".mon", ".mon.map"):
        assert (tmp / f"ab{suffix}").read_bytes() == (tmp / f"ba{suffix}").read_bytes()
    for command in ("info", "greens"):
        assert run_mono([command, tmp / "ab.mon", "--format", "machine"]).returncode == 0


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_help_to_a_full_stdout_exits_2():
    with open("/dev/full", "w") as full:
        assert run_mono(["--help"], stdout=full).returncode == 2
