"""Golden artifact digests: the four subcommands keep every data artifact's bytes.

``tests/golden`` holds the configs: copies of the three shipped ones, the
``audit`` and ``converge`` benchmark workloads at seed 7, and two small ones
for the paths the others miss (a complex ``rotating_frame`` family audited
with ``k2_order = 2``; a ``table``-profile circle, whose derivative comes from
finite differences, audited with ``k2_order = 0``).  ``digests.json`` holds,
for each config and subcommand, the sha256 of every data artifact (every
file but ``run_record.json``), the header and row count of each CSV, and the
``counters`` (but ``threads``, which follows the usable CPUs) and
``arithmetic`` of ``run_record.json``.

Floating-point results depend on numpy and on the OpenBLAS build and core it
runs, so ``digests.json`` records the ones it was made with.  Where they
match, every byte and every counter is compared.  Elsewhere only the
structure is: file lists, CSV headers and row counts, the arithmetic and the
counters that do not follow from rounding; the byte test then reports itself
skipped, naming the difference.

A change that moves bytes on purpose regenerates the digests, and names each
moved digest and why::

    PYTHONPATH=src python tests/test_golden.py
"""

import ctypes
import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from formevol.cli import main

GOLDEN = Path(__file__).parent / "golden"
DIGESTS = GOLDEN / "digests.json"
SHIPPED = Path(__file__).parents[1] / "configs"
CONFIGS = sorted(path.name for path in GOLDEN.glob("*.ini"))
COMMANDS = ("audit", "propagate", "converge", "spectrum")
#: Counters fixed by the grids and the steps, whatever the rounding: the pruned
#: K2 pairs, and with them ``eigensolved_mats``, follow the computed norms.
STRUCTURAL = ("h_slices", "propagation_steps", "k2_pairs")


def environment():
    """numpy's version, the version of its bundled OpenBLAS and the core that
    OpenBLAS chose at load (the build is ``DYNAMIC_ARCH``)."""
    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        openblas = None
    core = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("libscipy_openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                       "openblas_get_corename"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_char_p
                core = getter().decode()
                break
    return {"numpy": np.__version__, "openblas": openblas, "openblas_core": core}


def run_all(config, outdir):
    """The digest of each subcommand run in process on ``config`` into ``outdir``."""
    runs = {}
    for command in COMMANDS:
        out = outdir / command
        with redirect_stdout(io.StringIO()):
            code = main([command, "--config", str(config), "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"{command} on {config.name} exited {code}")
        files = {}
        for path in sorted(out.iterdir()):
            if path.name == "run_record.json":
                continue
            data = path.read_bytes()
            files[path.name] = entry = {"sha256": hashlib.sha256(data).hexdigest()}
            if path.suffix == ".csv":
                lines = data.decode().splitlines()
                entry.update(header=lines[0], rows=len(lines) - 1)
        record = json.loads((out / "run_record.json").read_text())
        counters = {k: v for k, v in record["counters"].items() if k != "threads"}
        runs[command] = {"files": files, "counters": counters, "arithmetic": record["arithmetic"]}
    return runs


@pytest.fixture(scope="module")
def golden():
    return json.loads(DIGESTS.read_text())


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    """``produced(config)``: its runs' digests, each config run once per module."""
    cache = {}

    def get(config):
        if config not in cache:
            cache[config] = run_all(GOLDEN / config, tmp_path_factory.mktemp(config))
        return cache[config]

    return get


def test_every_config_has_digests_and_the_shipped_copies_are_current(golden):
    assert sorted(golden["runs"]) == CONFIGS
    for path in SHIPPED.glob("*.ini"):
        assert (GOLDEN / path.name).read_bytes() == path.read_bytes(), path.name


@pytest.mark.parametrize("config", CONFIGS)
def test_structure_matches(config, golden, produced):
    runs = produced(config)
    for command, expected in golden["runs"][config].items():
        run = runs[command]
        assert sorted(run["files"]) == sorted(expected["files"]), command
        for name, entry in expected["files"].items():
            got = run["files"][name]
            assert (got.get("header"), got.get("rows")) == (entry.get("header"), entry.get("rows")), \
                (command, name)
        assert run["arithmetic"] == expected["arithmetic"], command
        assert sorted(run["counters"]) == sorted(expected["counters"]), command
        for key in STRUCTURAL:
            assert run["counters"].get(key) == expected["counters"].get(key), (command, key)


@pytest.mark.parametrize("config", CONFIGS)
def test_bytes_match(config, golden, produced):
    here = environment()
    differs = {k: (v, here[k]) for k, v in golden["environment"].items() if here[k] != v}
    if differs:
        pytest.skip(f"byte comparison not run: environment (digests, here) differs: {differs}")
    runs = produced(config)
    for command, expected in golden["runs"][config].items():
        assert runs[command] == expected, command


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        runs = {config: run_all(GOLDEN / config, Path(tmp) / config) for config in CONFIGS}
    DIGESTS.write_text(json.dumps({"environment": environment(), "runs": runs},
                                  sort_keys=True, indent=1) + "\n")
    print(f"wrote {DIGESTS}: {len(runs)} configs x {len(COMMANDS)} subcommands")
