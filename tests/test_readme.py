"""Run the command lines of README.md whose stdout the README states and
compare it: a `puiseux …` line ending in `# <stdout>`, or followed by a
line `# -> <stdout>`.  The commands run through `cli.main` in a fresh
directory that holds every catalog description as `<name>.json`, the
files the README's `echo … > file` lines write, and the files its
`puiseux … --out` lines write, in README order."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from puiseux import cli
from puiseux.constructions import CATALOG_NAMES

README = Path(__file__).resolve().parent.parent / "README.md"
ECHO = re.compile(r"echo '(.*)' > (\S+)$")
STATED = re.compile(r"(puiseux .*?)\s+# (.*)$")


def _shell_lines():
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.M | re.S)
    return [line.strip() for block in blocks for line in block.splitlines()]


def _stated():
    """(command, stdout) of every line whose stdout the README states."""
    lines = _shell_lines()
    out = []
    for line, after in zip(lines, lines[1:] + [""]):
        m = STATED.match(line)
        if m:
            out.append((m[1], m[2]))
        elif line.startswith("puiseux ") and after.startswith("# -> "):
            out.append((line, after[len("# -> "):]))
    return out


def _run(command):
    argv = shlex.split(command)[1:]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("readme")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(path)
        for name in CATALOG_NAMES:
            assert _run(f"puiseux catalog --name {name} --out {name}.json")[0] == 0
        for line in _shell_lines():
            m = ECHO.match(line)
            if m:
                Path(m[2]).write_text(m[1] + "\n", encoding="utf-8")
            elif line.startswith("puiseux ") and "--out" in shlex.split(line):
                assert _run(line)[0] == 0, line
    return path


CASES = _stated()


def test_readme_states_the_scan_outputs():
    commands = [c for c, _ in CASES]
    assert any(c.startswith("puiseux witnesses") for c in commands)
    assert any(c.startswith("puiseux rset") for c in commands)


@pytest.mark.parametrize("command, stdout", CASES, ids=[c for c, _ in CASES])
def test_stated_stdout(command, stdout, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    assert _run(command) == (0, stdout + "\n")
