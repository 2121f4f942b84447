"""The recorder and the allow-list verdict of ``tools/census.py``."""

import importlib.util
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "census.py"
_spec = importlib.util.spec_from_file_location("census_tool", _PATH)
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)

PROBE = '''\
import multiprocessing


def only_in_child():
    return 1


def never_called():
    return 2


def main():
    child = multiprocessing.get_context("fork").Process(target=only_in_child)
    child.start()
    child.join()
    assert child.exitcode == 0
'''


def test_a_function_called_only_in_a_forked_child_is_recorded(tmp_path):
    src = tmp_path / "src"
    (src / "probe").mkdir(parents=True)
    (src / "probe" / "__init__.py").write_text(PROBE)
    work = tmp_path / "work"
    work.mkdir()
    env = census.prepare(work, src)
    census.run(["-c", "import probe; probe.main()"], work, env)

    functions = census.defined_functions(work / "src", "probe")
    seen = census.called(work)
    called = {name for key, name in functions.items() if key in seen}
    assert called == {"probe.main", "probe.only_in_child"}
    assert "probe.never_called" in functions.values()


FUNCTIONS = {("repro/a.py", 1): "repro.a.used",
             ("repro/a.py", 5): "repro.a.Box.unused",
             ("repro/a.py", 9): "repro.a.Box.also_unused"}
SEEN = {("repro/a.py", 1)}


def test_an_entry_covers_everything_under_its_name():
    uncalled, unallowed, errors = census.review(
        FUNCTIONS, SEEN, "# comment\nrepro.a.Box: a reason\n")
    assert uncalled == ["repro.a.Box.also_unused", "repro.a.Box.unused"]
    assert unallowed == [] and errors == []
    _, unallowed, _ = census.review(FUNCTIONS, SEEN, "repro.a.Box.unused: why\n")
    assert unallowed == ["repro.a.Box.also_unused"]


def test_an_entry_without_a_reason_is_refused():
    for line in ("repro.a.Box\n", "repro.a.Box:\n", "repro.a.Box:   \n"):
        _, unallowed, errors = census.review(FUNCTIONS, SEEN, line)
        assert errors == ["line 1: repro.a.Box gives no reason"]
        assert len(unallowed) == 2


def test_stale_entries_are_refused():
    text = ("repro.a.Box: a reason\n"
            "repro.a.gone: deleted since\n"
            "repro.a.used: the census saw it called\n"
            "repro.a.Box: listed again\n")
    _, unallowed, errors = census.review(FUNCTIONS, SEEN, text)
    assert unallowed == []
    assert errors == ["line 4: repro.a.Box is listed twice",
                      "repro.a.gone: names no function under src/repro",
                      "repro.a.used: the census saw everything under it called"]


def test_first_lines_match_the_code_objects_of_decorated_functions(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text(
        "import functools\n\n\nclass K:\n    @staticmethod\n"
        "    @functools.lru_cache\n    def f():\n        def g():\n"
        "            pass\n        return g\n")
    functions = census.defined_functions(tmp_path, "pkg")
    sys.path.insert(0, str(tmp_path))
    try:
        import pkg
    finally:
        sys.path.remove(str(tmp_path))
        sys.modules.pop("pkg", None)
    code = pkg.K.f.__wrapped__.__code__
    assert functions[("pkg/__init__.py", code.co_firstlineno)] == "pkg.K.f"
    assert functions[("pkg/__init__.py", 8)] == "pkg.K.f.g"
