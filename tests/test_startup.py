"""What a cold start of the CLI loads, in fresh isolated interpreters.

`import fibk3.cli` and a `candidates` request must not load dataclasses,
inspect, fractions, random or fibk3.selftest: together they were most of the
package's start-up cost. Each is compared against a bare `python -I`, so a
module that a site hook (a .pth file) loads anyway is not counted. The two
commands that need a deferred module, `discact` (fractions) and `selftest`,
must still work from a cold start. `import fibk3.selftest`, which the
benchmark makes in every workload, must load no pickle, multiprocessing,
concurrent.futures or threading.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
DEFERRED = {"dataclasses", "inspect", "fractions", "random", "fibk3.selftest"}

# runs the given statements, writes the loaded module names to stderr and
# exits with the code the statements set
PROBE = """\
import sys
sys.path.insert(0, {src!r})
code = 0
{body}
sys.stderr.write("\\n".join(sys.modules))
sys.exit(code)
"""


def isolated(body: str) -> tuple[int, str, set[str]]:
    """Exit code, stdout and loaded modules of `python -I` running body."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", PROBE.format(src=SRC, body=body)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc.returncode, proc.stdout, set(proc.stderr.splitlines())


def cli_main(*argv: str) -> str:
    """Statements that run `fibk3 argv` and keep its exit code."""
    return f"import fibk3.cli\ncode = fibk3.cli.main({list(argv)!r})"


@pytest.fixture(scope="module")
def bare_modules() -> set[str]:
    code, _, modules = isolated("")
    assert code == 0 and "sys" in modules
    return modules


@pytest.mark.parametrize(
    "body",
    ["import fibk3.cli", cli_main("candidates", "61", "1", "--json")],
    ids=["import", "candidates"],
)
def test_cold_start_defers_heavy_modules(body, bare_modules):
    code, _, modules = isolated(body)
    assert code == 0
    assert "fibk3.cli" in modules and "fibk3.engine" in modules
    assert (modules - bare_modules) & DEFERRED == set()


def test_candidates_from_a_cold_start_is_ok():
    code, out, _ = isolated(cli_main("candidates", "61", "1", "--json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "ok" and doc["payload"]["entry_point"] == "15"


def test_discact_loads_fractions_on_use():
    code, out, modules = isolated(cli_main("discact", "3", "1", "3", "1", "--json"))
    assert code == 0 and "fractions" in modules
    doc = json.loads(out)
    assert doc["status"] == "ok"
    assert doc["payload"]["matrix"][0] == ["16/15", "-4/5"]


def test_selftest_loads_on_use():
    code, out, modules = isolated(cli_main("selftest", "--suite", "cassini"))
    assert code == 0 and "fibk3.selftest" in modules
    assert out.startswith("cassini: PASS (")
    assert "all passed" in out


def test_selftest_import_loads_no_pool_or_pickle(bare_modules):
    # perfbench imports fibk3.selftest in every workload, and `_split` forks
    # with os alone: pickle loads only to carry a worker's exception
    code, _, modules = isolated("import fibk3.selftest")
    assert code == 0 and "fibk3.selftest" in modules
    loaded = modules - bare_modules
    assert loaded & {"pickle", "multiprocessing", "concurrent.futures", "threading"} == set()
