import importlib
import inspect
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from addcomp import (
    BlockBuild,
    BlockPreconditionFailed,
    BlockCoverResult,
    ComplementBuild,
    GreedyInstance,
    GreedyTrace,
    NatSet,
    PreconditionViolated,
    RatioAnalysis,
    SequenceSpec,
    analyze_ratio,
    block_cover,
    build_complement,
    generate,
    parse_spec,
    reflect,
    sumset,
    sumset_reference,
    write_set_file,
)
from addcomp import natset

MODULES = ("addcomp", *(f"addcomp.{name}" for name in (
    "builder", "cli", "cover", "errors", "greedy", "natset", "oracle", "sequences")))

#: The seven modules whose names the package re-exports.
LIBRARY = tuple(module for module in MODULES[1:] if module != "addcomp.cli")

#: Modules a command loads only when it runs them.
DEFERRED = ("addcomp.builder", "addcomp.greedy", "addcomp.cover", "addcomp.oracle", "hashlib",
            "json")

#: Which of DEFERRED each command loads; "{b}" and "{report}" are files under tmp_path.
COMMAND_LOADS = [
    (["--version"], {"addcomp.cover"}),
    (["gap", "powers:2", "--range", "100..200"], {"addcomp.cover"}),
    (["density", "powers:2", "--horizon", "1024", "--format", "csv"], {"addcomp.cover"}),
    (["verify", "powers:2", "{b}", "--range", "128..512"], {"addcomp.cover", "hashlib"}),
    (["thin", "powers:2", "--q", "64"], {"addcomp.cover", "addcomp.greedy"}),
    (["build", "powers:2", "--horizon", "1024", "--report", "{report}"],
     {"addcomp.builder", "addcomp.greedy", "addcomp.cover", "json"}),
    (["oracle", "powers:2", "--horizon", "32", "--m", "8", "--n", "8", "--x1", "4", "--x2", "16"],
     {"addcomp.greedy", "addcomp.cover", "addcomp.oracle"}),
]

#: Public names that were removed; none may come back through an export list.
REMOVED = ("translate", "translate_count_upper_bound", "HypothesisViolated", "read_elements",
           "DensityProfile", "choose_gain_cutoff", "two_term_bound", "closed_form_bound",
           "CoverCertificate", "from_bits")

#: Every public record type; each is an immutable NamedTuple.
RECORDS = ("SequenceSpec", "RatioAnalysis", "BlockCoverResult", "GreedyInstance", "GreedyTrace",
           "BlockBuild", "ComplementBuild", "DensitySample")


@pytest.mark.parametrize("module", MODULES)
def test_exports_resolve(module):
    mod = importlib.import_module(module)
    for name in mod.__all__:
        assert hasattr(mod, name), f"{module}.{name}"


@pytest.mark.parametrize("module", MODULES)
def test_removed_names_stay_gone(module):
    mod = importlib.import_module(module)
    assert not set(REMOVED) & set(mod.__all__)
    assert not set(REMOVED) & set(vars(mod))


def test_package_exports_are_the_module_lists():
    # each public name is declared once, in its module's __all__
    package = importlib.import_module("addcomp")
    lists = [importlib.import_module(f"addcomp.{name}").__all__ for name in (
        "natset", "sequences", "cover", "greedy", "builder", "oracle", "errors")]
    assert package.__all__ == ["__version__", *(name for names in lists for name in names)]
    assert len(set(package.__all__)) == len(package.__all__)
    assert not set(importlib.import_module("addcomp.cli").__all__) & set(package.__all__)


def test_removed_members_stay_gone():
    for attr in ("union", "difference", "complement", "max_element", "__or__", "__sub__"):
        assert attr not in vars(NatSet), attr
    assert BlockCoverResult._fields == ("candidate_set", "covered")
    assert "horizon" not in inspect.signature(build_complement).parameters
    # one owner per fact: no copied fields, no cached count, no fallback spec string
    assert not {"threshold", "horizon"} & set(ComplementBuild._fields)
    assert "_count" not in NatSet.__slots__
    assert not hasattr(SequenceSpec, "describe")
    # results keep only what their producer decides; reports derive the rest
    assert BlockBuild._fields == ("exponent", "trace", "translate_bound_ok")
    assert "peak_gain" not in GreedyTrace._fields
    assert not {"alpha", "certified"} & set(RatioAnalysis._fields)
    assert "certified" not in inspect.signature(analyze_ratio).parameters


def test_bitmask_stays_inside_natset():
    src = Path(importlib.import_module("addcomp").__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name != "natset.py":
            # "_mask" also matches NatSet._from_mask and natset._range_mask
            assert "_mask" not in path.read_text(), path.name


@pytest.mark.parametrize("func", [NatSet.__init__, sumset, reflect, sumset_reference])
def test_horizon_is_always_given(func):
    # a NatSet's horizon comes from its caller, never from its elements
    assert inspect.signature(func).parameters["horizon"].default is inspect.Parameter.empty


def test_horizon_is_never_inferred():
    assert not hasattr(natset, "_pick_horizon")


@pytest.mark.parametrize("argv, loads", COMMAND_LOADS, ids=[
    "version", "gap", "density-csv", "verify", "thin-q", "build-report", "oracle"])
def test_each_command_loads_only_its_layers(tmp_path, argv, loads):
    # record types are NamedTuples, so neither dataclasses nor inspect is ever loaded;
    # of DEFERRED, a command loads just what it runs.  The spawn keeps this process's
    # cwd and environment, so a relative PYTHONPATH still finds addcomp.
    b = tmp_path / "B.set"
    write_set_file(b, [x for x in range(1, 513) if x & (x - 1)])  # every non-power of two
    argv = [arg.format(b=b, report=tmp_path / "R.json") for arg in argv]
    code = (
        "import sys, addcomp.cli\n"
        "try:\n"
        f"    code = addcomp.cli.main({argv!r})\n"
        "except SystemExit as exc:  # --version exits from argparse\n"
        "    code = exc.code\n"
        f"print(code, sorted(m for m in ('dataclasses', 'inspect', *{DEFERRED}) if m in sys.modules))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == f"0 {sorted(loads)}", out.stdout


def test_package_resolves_names_on_first_use():
    # a fresh interpreter, so each name below is found by the package's __getattr__
    code = (
        "import sys, addcomp\n"
        "print(sorted(m for m in sys.modules if m.startswith('addcomp.')))\n"
        f"print([getattr(addcomp, m.split('.')[1]).__name__ for m in {LIBRARY}] == {list(LIBRARY)})\n"
        "from addcomp import *\n"
        "print(all(name in globals() for name in addcomp.__all__))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "[]\nTrue\nTrue\n"


def test_package_dir_and_unknown_names():
    package = importlib.import_module("addcomp")
    assert set(package.__all__) <= set(dir(package))
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name


@pytest.fixture(scope="module")
def records():
    spec = parse_spec("powers:2", 1 << 10)
    a = generate(spec)
    build = build_complement(spec)
    cover = block_cover(a, 64, 128, 256)
    inst = GreedyInstance(a=a, b=cover.candidate_set, m=128, n=128, x1=64, x2=256)
    found = (spec, build.analysis, cover, inst, build.blocks[0].trace, build.blocks[0],
             build, build.density[0])
    return {type(record).__name__: record for record in found}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable_and_pickle(records, name):
    record = records[name]
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record)
    assert copy == record


@pytest.mark.parametrize("exc", [
    PreconditionViolated("q >= 1", "got q=0"),
    PreconditionViolated("B n A = empty"),
    BlockPreconditionFailed(9, "block exponent 9: depth > 0: got 0"),
    BlockPreconditionFailed(4),
], ids=["clause-detail", "clause", "block-detail", "block"])
def test_precondition_errors_pickle(exc):
    # a block thinned in another process comes back pickled, its clause, exponent and message
    # intact (a PreconditionViolated is rebuilt from its message, then its clause restored)
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is type(exc)
    assert str(copy) == str(exc)
    assert copy.args == exc.args
    assert vars(copy) == vars(exc)


def test_readme_library_block_runs_as_written():
    # the README's Library example; each line whose comment starts "True" must hold
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library\n\n```python\n", 1)[1].split("```", 1)[0]
    names: dict = {}
    exec(block, names)
    claims = [line.partition("  #") for line in block.splitlines()]
    checked = [expr for expr, _, comment in claims if comment.strip().startswith("True")]
    assert len(checked) == 3
    for expr in checked:
        assert eval(expr, names) is True, expr
    assert names["build"].missing.horizon == 1 << 19
