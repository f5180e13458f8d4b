"""Golden CLI corpus: pinned stdout digests and exit codes.

Each case runs ``qspath.cli.main`` in-process and compares the SHA-256 of
its stdout and its exit code with values recorded before any refactoring of
the library, so a change that alters one byte of CLI output fails here.
The ``solve`` and ``linearize`` cases read files written by the ``generate``
cases.  The grids that commands read are at most 5x5, except for the
path-matrix oracle cases, which reach 5x6 and 6x5 in the equality sense and
5x5 in the nonnegative sense so that both senses print a vector and a
certificate at benchmark sizes.  A few ``generate`` cases pin files only:
weak-sum, product and random grids at the benchmark's sizes (up to 13x8 and
12x12), and 4x4 fills whose --max-entry puts the rows of Q's triangle just
inside and just past bytes.  Their digests were recorded from the tree
before the weak-sum and product rows became bytes.translate passes.
"""
from __future__ import annotations

import contextlib
import hashlib
import io

import pytest

from qspath import fileio
from qspath.cli import main

QAP_TEXT = "3  0 1 2 1 0 3 2 3 0  0 4 1 4 0 2 1 2 0  1 0 2 0 1 3 2 1 0"

# name -> (generate arguments, exit code, stdout SHA-256)
GENERATE = {
    "grid-random": (
        ["grid", "4", "4", "--fill", "random", "--seed", "3"], 0,
        "b9e29560e00fbd2279b292f4878b6f3750f0bf52695535d73b99f34efda86980",
    ),
    "grid-weak-sum": (
        ["grid", "5", "5", "--fill", "weak-sum", "--seed", "4"], 0,
        "169c383a8a6a219849e7b500da5526ab852b9ea20b5492c18b2e00ac9d639fe8",
    ),
    "grid-product": (
        ["grid", "3", "4", "--fill", "product", "--seed", "5"], 0,
        "3fabbb86c3f3193610f5811ce73aed36131b058deeb34d1a7a5d66d061ea2b75",
    ),
    "grid-adjacent": (
        ["grid", "4", "3", "--fill", "adjacent", "--seed", "6"], 0,
        "b276a590b79295a6a4f38a75ce3639cf2a200d1d9089f5a578c54b0f1098b3f3",
    ),
    "grid-zero": (
        ["grid", "3", "3"], 0,
        "581f6c8ed7db8137b9ce1e6042486e35f5d3d89a5ff09aaffd390dc3a82dae16",
    ),
    "complete-4": (
        ["complete", "4", "--example"], 0,
        "1b641341b1ea621efaa9f6bb0061fcce75b23928db6049c518cb43176204c398",
    ),
    "complete-5": (
        ["complete", "5", "--example"], 0,
        "ea43358afeb1d03d78fa23b6cf0dca6aaef62b6bd78e6be562327517c427a94c",
    ),
    "complete-4-weak-sum": (
        ["complete", "4", "--fill", "weak-sum", "--seed", "1"], 0,
        "289ab025d799ab0a48f4da4a9aee2c6fd33a53a7cafd0580566cc236e02c32de",
    ),
    "cycle": (
        ["cycle", "5", "--fill", "random", "--seed", "1"], 0,
        "635e0a5554ccb97fd8bb310b0b889ea19039df50ee356996065e79466680786b",
    ),
    "hypercube": (
        ["hypercube", "3", "--fill", "weak-sum", "--seed", "2"], 0,
        "933c4b85ee34a8aa293241f29e7e9dc61bae1758f02b883daf67f83a32facf87",
    ),
    "tournament": (
        ["tournament", "4", "--orientation", "21", "--fill", "random", "--seed", "9"], 0,
        "968b74099067201f76a262c53c479abc2c090a865210d116b5e7c0f7b76df983",
    ),
    "tournament-seeded": (
        ["tournament", "5", "--fill", "random", "--seed", "8"], 0,
        "b9eed738276b0c714d8291c1db5b9ad7031b718a1207662a9d7dc632cb397885",
    ),
    "qap-reduce": (
        ["qap-reduce", "{qap}"], 0,
        "b8121643890097b58dd43f366a228bd79c7c4f5e434add89472c89b48fa3510e",
    ),
    "disjoint-reduce": (
        ["disjoint-reduce", "6", "--seed", "11"], 0,
        "944cda28dde39a11086986567af66c87992e86bf65cbde54a44d766036ae30fd",
    ),
    "grid-5x5-weak-sum": (
        ["grid", "5", "5", "--fill", "weak-sum", "--seed", "21"], 0,
        "c46b50497e68acc5a5496dd305cb17007f86d310e1965abf497795d746b39e9c",
    ),
    "grid-5x5-random": (
        ["grid", "5", "5", "--fill", "random", "--seed", "22"], 0,
        "5d10c1f9651e5210a7bc4d2ebf352d79e880acba376db387d2aee5f6d0c233d3",
    ),
    "grid-6x5-weak-sum": (
        ["grid", "6", "5", "--fill", "weak-sum", "--seed", "23"], 0,
        "3116cacd8efe40bf17f9cba86602f42fd1a6b879b2d25150915f63d38402939a",
    ),
    "grid-5x6-random": (
        ["grid", "5", "6", "--fill", "random", "--seed", "24"], 0,
        "696a61b609f4b7aafd4bb6efbaf3462a9f23394e38acaa026c26eb552fb6d996",
    ),
    "grid-4x5-adjacent": (
        ["grid", "4", "5", "--fill", "adjacent", "--seed", "25"], 0,
        "7f3afde1b923512e04523060fa0df08f193d93f3323c09fe97ae53db35b9fafd",
    ),
    "grid-5x4-product": (
        ["grid", "5", "4", "--fill", "product", "--seed", "27"], 0,
        "c93a4d933aa7be16ed8b0e04c113fae036df18c43068ded37142bb2e1fe36bd3",
    ),
    # benchmark sizes, and the fills either side of the byte/list boundary
    # of the triangle's rows: a weak-sum top of 255 against 257, a random
    # top of 256 against 257 (the two weak-sum files draw the same values,
    # so their digests agree)
    "grid-10x11-weak-sum": (
        ["grid", "10", "11", "--fill", "weak-sum", "--seed", "1"], 0,
        "8dab1cfc5402570dce04b9cc2ccefac6c414c7130b615ba411891879b37560b2",
    ),
    "grid-13x8-weak-sum": (
        ["grid", "13", "8", "--fill", "weak-sum", "--seed", "2"], 0,
        "1caa93aa4f833d4c67b3b7d2250d76ec18b34ca6900227c4cc5dfdfcbb59690a",
    ),
    "grid-8x8-product": (
        ["grid", "8", "8", "--fill", "product", "--seed", "3"], 0,
        "d212e3f0d022024797c15e6f1dfff0deb53fbfca13b64ab40d5a78e44eaa9882",
    ),
    "grid-12x12-random": (
        ["grid", "12", "12", "--fill", "random", "--seed", "4"], 0,
        "dc9c31e833ad976591fc8b3434cf4f0bc7b5c95207b4d18a78b780a7b237140e",
    ),
    "grid-weak-sum-top-255": (
        ["grid", "4", "4", "--fill", "weak-sum", "--seed", "5", "--max-entry", "127"], 0,
        "d8499929497483ba3ea2d27c25f8cc1b53f1db73ea28f52af25ef74b7da357de",
    ),
    "grid-weak-sum-top-257": (
        ["grid", "4", "4", "--fill", "weak-sum", "--seed", "5", "--max-entry", "128"], 0,
        "d8499929497483ba3ea2d27c25f8cc1b53f1db73ea28f52af25ef74b7da357de",
    ),
    "grid-random-top-256": (
        ["grid", "4", "4", "--fill", "random", "--seed", "6", "--max-entry", "255"], 0,
        "83972526f7fcd44ec44caecf776a0dc54e85148c3b071dc45b27cd6228b92288",
    ),
    "grid-random-top-257": (
        ["grid", "4", "4", "--fill", "random", "--seed", "6", "--max-entry", "256"], 0,
        "39ed5367c65090a58a7247ded266f3a85109f18d89233974cd7ff54e0b0a0a12",
    ),
}

# name -> (command, input file, extra arguments, exit code, stdout SHA-256)
COMMANDS = {
    "linearize-grid-yes": (
        "linearize", "grid-weak-sum", ["--mode", "grid"], 0,
        "eef735093c26d99503bbd17adb0b9f4c74bcaf9f729741bb2355bb7c6da358b4",
    ),
    "linearize-grid-no": (
        "linearize", "grid-random", ["--mode", "grid"], 3,
        "df26fc1a9a25099098a6dd3e3e06fcac6898f9fe2da9ba0e23d4d8d1248004d4",
    ),
    "linearize-grid-product": (
        "linearize", "grid-product", ["--mode", "grid"], 3,
        "87a08cdbc2d2ffb4f2da1964ad940bf271925cc876cceae4acf2d668e1f03cec",
    ),
    "linearize-oracle": (
        "linearize", "grid-adjacent", ["--mode", "oracle"], 3,
        "f38cf01271f724a3cf54dec340b3b4026a6a80b52404ea5720415ec65f39742f",
    ),
    "linearize-oracle-nonneg": (
        "linearize", "complete-5", ["--mode", "oracle-nonneg"], 3,
        "8561daac5a0e0a17a738b9ea74a76414568e4aee0d83b0f81556cfd18fff8594",
    ),
    "linearize-k4-no": (
        "linearize", "complete-4", ["--mode", "k4"], 3,
        "ab07a49649e72a161df20d80f9b42a4e35c30c0c73ba16a5b23dfafcc728e61d",
    ),
    "linearize-k4-yes": (
        "linearize", "complete-4-weak-sum", ["--mode", "k4"], 0,
        "7166794a7a3aa7cba6f7cac7ae45236501fe9ed0e153c22a68edb8ceac882131",
    ),
    "linearize-t4": (
        "linearize", "tournament", ["--mode", "t4"], 0,
        "4dee2f8fe54ec375a7601dba8d68cb593fc2eeeed2f0c55a07779b05c956b99e",
    ),
    "solve-brute": (
        "solve", "grid-random", ["--method", "brute"], 0,
        "e1b9c2563ec6f07307523678ba29c676e9f69b8cac6a7b10e5dbc3967189b5b4",
    ),
    "solve-aqspp": (
        "solve", "grid-adjacent", ["--method", "aqspp"], 0,
        "eabd32764c91fa54fe95e8c8caf9141f9ca9dc4c5a44a191e31169334c037fae",
    ),
    "solve-product": (
        "solve", "grid-product", ["--method", "product"], 0,
        "b6e7374a49efdc3db9c77d88bea27f8f23cdfd8781230ee04a7bfb36abdda49a",
    ),
    "solve-spp": (
        "solve", "grid-zero", ["--method", "spp"], 0,
        "fa039fbda0c35c88b4901157aee6e83286c353724a0f371f389bb4a4f8ec52af",
    ),
    "oracle-5x5-weak-sum": (
        "linearize", "grid-5x5-weak-sum", ["--mode", "oracle"], 0,
        "28fb3c03969307be48974cd7d38e4ad996a13b437a0ca204e8dcc7dc4e4e3030",
    ),
    "oracle-5x5-random": (
        "linearize", "grid-5x5-random", ["--mode", "oracle"], 3,
        "f2a8c0daa870ea47c170d254f8d9d8c58e3c9aeb6c248275b41b50172f22a7ab",
    ),
    "oracle-6x5-weak-sum": (
        "linearize", "grid-6x5-weak-sum", ["--mode", "oracle"], 0,
        "c5c07c48efefe2313a47f1fa4a2f644f800e15de9e72f8d998c5add51b4a92ff",
    ),
    "oracle-5x6-random": (
        "linearize", "grid-5x6-random", ["--mode", "oracle"], 3,
        "fe12f7a810290ed02e3636bd56de8b8195010af082df6b3cb54b3f106d86e27f",
    ),
    "oracle-nonneg-5x5-weak-sum": (
        "linearize", "grid-5x5-weak-sum", ["--mode", "oracle-nonneg"], 0,
        "ed488655a1f63021021eb7a47e6f525c5e7d1f9b15598f67d4a19e2a0cd57800",
    ),
    "oracle-nonneg-5x5-random": (
        "linearize", "grid-5x5-random", ["--mode", "oracle-nonneg"], 3,
        "4046b5352926a8f3d6ea7935896a1e23a944878089d8e19bad96605af2891b2c",
    ),
    "oracle-nonneg-4x5-adjacent": (
        "linearize", "grid-4x5-adjacent", ["--mode", "oracle-nonneg"], 3,
        "770ff2070d50c7195514dab706eb23671eb16ed81a2752d98a22e90bb28f7661",
    ),
    "oracle-nonneg-5x4-product": (
        "linearize", "grid-5x4-product", ["--mode", "oracle-nonneg"], 3,
        "b3b39d0646191c6d8265c462b0daf1f76a64982059bf153aab042ee012b0f844",
    ),
}


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _generate_argv(name: str, qap_path: str) -> list[str]:
    return ["generate"] + [a.format(qap=qap_path) for a in GENERATE[name][0]]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> dict[str, str]:
    """Instance file path of every generate case."""
    root = tmp_path_factory.mktemp("corpus")
    qap_path = root / "tiny.dat"
    qap_path.write_text(QAP_TEXT)
    files = {"qap": str(qap_path)}
    for name in GENERATE:
        _, text = _run(_generate_argv(name, str(qap_path)))
        path = root / f"{name}.qspp"
        path.write_text(text)
        files[name] = str(path)
    return files


@pytest.mark.parametrize("name", sorted(GENERATE))
def test_generate_output_is_pinned(corpus, name):
    _, code, digest = GENERATE[name]
    got_code, out = _run(_generate_argv(name, corpus["qap"]))
    assert (got_code, _digest(out)) == (code, digest)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_output_is_pinned(corpus, name):
    command, file_name, extra, code, digest = COMMANDS[name]
    got_code, out = _run([command, corpus[file_name]] + extra)
    assert (got_code, _digest(out)) == (code, digest)


@pytest.mark.parametrize("chars", [1, 2, 3, 17, 64])
def test_command_outputs_are_pinned_at_short_slices(corpus, chars, monkeypatch):
    monkeypatch.setattr(fileio, "_SLICE_CHARS", chars)
    for command, file_name, extra, code, digest in COMMANDS.values():
        got_code, out = _run([command, corpus[file_name]] + extra)
        assert (got_code, _digest(out)) == (code, digest)
