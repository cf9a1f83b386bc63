"""The package surface: one name -> module table, resolved on first use."""

import fnmatch
import importlib
import importlib.resources
from pathlib import Path

import pytest

import polyspec


def test_all_is_the_table():
    assert polyspec.__all__ == list(polyspec._EXPORTS)
    assert len(set(polyspec.__all__)) == len(polyspec.__all__)


@pytest.mark.parametrize("name", polyspec.__all__)
def test_each_name_is_its_defining_module_object(name):
    module = importlib.import_module(f"polyspec.{polyspec._EXPORTS[name]}")
    assert getattr(polyspec, name) is getattr(module, name)


def test_dir_and_star_import_cover_every_name():
    assert set(polyspec.__all__) <= set(dir(polyspec))
    namespace = {}
    exec("from polyspec import *", namespace)
    assert set(polyspec.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(polyspec, name) for name in polyspec.__all__)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        polyspec.no_such_name
    assert not hasattr(polyspec, "spectrum_of_nothing")
    with pytest.raises(ImportError):
        exec("from polyspec import no_such_name", {})


def test_the_zero_snapshot_is_package_data():
    tomllib = pytest.importorskip("tomllib")
    from polyspec import zeros

    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as f:
        globs = tomllib.load(f)["tool"]["setuptools"]["package-data"]["polyspec"]
    name = Path(zeros._SNAPSHOT_FILE).name
    assert Path(zeros._SNAPSHOT_FILE).parent == Path(zeros.__file__).parent
    assert any(fnmatch.fnmatch(name, glob) for glob in globs)
    found = importlib.resources.files("polyspec").joinpath(name)
    assert found.is_file()
    assert len(zeros._parse_snapshot(found.read_bytes())) == 3 * zeros._SNAPSHOT_ENTRIES
