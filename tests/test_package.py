import json
import os
import subprocess
import sys
from pathlib import Path

import ztop

SRC = Path(__file__).resolve().parents[1] / "src"

# Imports ztop (and its CLI) once, then purges every ztop module and imports
# again three times, as importlib.reload, notebook autoreload and the
# benchmark's set-ups do. Prints, as JSON, how many copies of each ztop class
# are alive after the first import and after the last.
REIMPORT = """
import gc, importlib, json, sys
from collections import Counter

def fresh_import():
    for name in [n for n in sys.modules if n == "ztop" or n.startswith("ztop.")]:
        del sys.modules[name]
    importlib.import_module("ztop")
    importlib.import_module("ztop.cli")

def live_classes():
    gc.collect()
    return Counter(f"{c.__module__}.{c.__qualname__}" for c in gc.get_objects()
                   if isinstance(c, type) and c.__module__.split(".")[0] == "ztop")

fresh_import()
first = live_classes()
for _ in range(3):
    fresh_import()
print(json.dumps([first, live_classes()]))
"""


def test_every_exported_name_resolves():
    missing = [name for name in ztop.__all__ if not hasattr(ztop, name)]
    assert missing == []
    assert len(set(ztop.__all__)) == len(ztop.__all__)


def test_star_import():
    namespace = {}
    exec("from ztop import *", namespace)
    assert set(ztop.__all__) <= set(namespace)


def test_a_reimport_frees_the_copy_before_it():
    # A module-level typing subscript of a ztop class (Union[A, B],
    # Optional[A]) lands in typing's process-wide cache, which then keeps the
    # class, its methods and its module's globals alive for good.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", REIMPORT], env=env, capture_output=True, text=True, check=True)
    first, last = json.loads(proc.stdout)
    assert first["ztop.pivots.PivotSequence"] == 1
    # A frozen slots dataclass (IntegerSequence) keeps the class that
    # dataclass replaced alive beside it, as its generated __setattr__ closes
    # over it: two class objects per copy, hence the comparison with the
    # counts after one import rather than with 1.
    assert {name: n for name, n in last.items() if n != first.get(name)} == {}
