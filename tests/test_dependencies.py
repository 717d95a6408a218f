"""The runtime dependencies pyproject.toml declares are the packages the
source imports: no undeclared import, and no declared package left unused.
And every name the benchmark scripts take from unitball still exists, every
``__all__`` entry resolves, and README's library text cites only exported
names."""

import ast
import dataclasses
import importlib.util
import inspect
import pathlib
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parent.parent


def declared_dependencies() -> set[str]:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    # the distribution name ends where a version, extra or marker begins
    return {re.match(r"[A-Za-z0-9._-]+", r).group().lower().replace("-", "_") for r in requirements}


def imported_packages() -> set[str]:
    """Top-level names of every absolute import under src/unitball,
    including imports inside functions."""
    names = set()
    for path in sorted((ROOT / "src" / "unitball").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names)


def test_declared_dependencies_are_the_imported_packages():
    assert imported_packages() == declared_dependencies()


def _submodule(package: str, name: str) -> str | None:
    """``package.name`` when that is a module, else None."""
    if importlib.util.find_spec(package).submodule_search_locations is None:
        return None
    full = f"{package}.{name}"
    return full if importlib.util.find_spec(full) is not None else None


def benchmark_names() -> set[tuple[str, str]]:
    """(module, name) for every name a perfbench script imports from
    unitball, and for every attribute it reads off an imported unitball
    module (``ser.certificate_to_obj`` after ``from unitball import
    serialize as ser``)."""
    names = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "unitball":
                for alias in node.names:
                    names.add((node.module, alias.name))
                    if _submodule(node.module, alias.name):
                        modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "unitball":
                        modules[alias.asname or alias.name] = alias.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in modules:
                    names.add((modules[node.value.id], node.attr))
    return names


def test_benchmark_imports_from_unitball_exist():
    names = benchmark_names()
    # the replay of stages needs these, so the scan must see them
    for name in ("left_multiplier", "jordan_check", "stormer_split",
                 "recover_conjugating_unitary", "falsify_by_sampling"):
        assert any(found == name for _, found in names), name
    missing = [
        f"{module}.{name}"
        for module, name in sorted(names)
        if not (_submodule(module, name) or hasattr(importlib.import_module(module), name))
    ]
    assert missing == []


def test_benchmark_reads_of_the_program_exist():
    """The benchmark calls ``cli.main`` through an attribute the scan does
    not see, and the replay reads ``cert.w`` and ``cert.jordan.e``."""
    from unitball import PreserverCertificate, StormerSplit, cli

    assert callable(cli.main)
    assert "w" in {f.name for f in dataclasses.fields(PreserverCertificate)}
    assert StormerSplit(-1, -1, None, None).e is None


MODULES = ["unitball"] + [
    f"unitball.{path.stem}"
    for path in sorted((ROOT / "src" / "unitball").glob("*.py"))
    if path.stem not in ("__init__", "__main__")
]


@pytest.mark.parametrize("module", MODULES)
def test_every_all_entry_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_readme_library_names_are_package_api():
    """Every function or class of unitball that README's library text
    (everything above "## CLI") cites by its bare name is in
    ``unitball.__all__``, and every dotted ``unitball.x.y`` it cites exists."""
    import unitball

    library = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[0]
    tour = re.search(r"from unitball import \(([^)]*)\)", library).group(1)
    cited = {name.strip() for name in tour.split(",") if name.strip()}
    cited |= set(re.findall(r"`([A-Za-z_]\w*)`", library))
    defined = {
        name
        for module in MODULES
        for name, obj in vars(importlib.import_module(module)).items()
        if (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__.startswith("unitball")
    }
    assert {"classify_preserver", "stormer_split", "falsify_by_sampling"} <= cited & defined
    assert sorted(cited & defined - set(unitball.__all__)) == []
    for dotted in re.findall(r"`(unitball(?:\.\w+)+)`", library):
        module, name = dotted.rsplit(".", 1)
        assert hasattr(importlib.import_module(module), name), dotted
