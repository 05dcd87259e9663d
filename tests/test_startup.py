"""Start-up is a fixed cost of every `effc` command, and declaring the node
classes was most of it.  `core.node` lets `dataclasses` generate only each
class's `__init__`; equality, hash and repr are shared.  Counted, not timed:
the `exec` calls that generate code, and the `inspect.signature` calls that
build docstrings, while a node class is declared."""

import json
import subprocess
import sys

from conftest import subprocess_env

# Counts, per declaring function (`core.node`, or `control`, which declares
# one class as `node` used to), the calls it makes, however deep, to
# `builtins.exec` (a `c_call` profile event) and to `inspect.signature`.
COUNT = r"""
import builtins, dataclasses, inspect, json, sys

counts = {}


def declarer(frame):
    while frame is not None:
        code = frame.f_code
        if code.co_name == "control" or code.co_name == "node" and code.co_filename.endswith("core.py"):
            return code.co_name
        frame = frame.f_back
    return None


def profile(frame, event, arg):
    if event == "c_call" and arg is builtins.exec:
        kind = "exec"
    elif event == "call" and frame.f_code is inspect.signature.__code__:
        kind = "signature"
    else:
        return
    who = declarer(frame)
    if who is not None:
        counts[f"{who}.{kind}"] = counts.get(f"{who}.{kind}", 0) + 1


def control():
    class Pair:
        left: int
        right: int

    return dataclasses.dataclass(eq=True, unsafe_hash=True)(Pair)


sys.setprofile(profile)
import effc.pipeline
control()
sys.setprofile(None)

from effc.core import NODES

print(json.dumps({"nodes": len(NODES), **counts}))
"""


def test_declaring_a_node_class_generates_only_its_init():
    out = subprocess.run(
        [sys.executable, "-c", COUNT], env=subprocess_env(), capture_output=True, text=True, check=True
    ).stdout
    counts = json.loads(out)
    # The counter sees what a class declared with generated `__eq__`,
    # `__hash__` and `__repr__` costs: four functions and a signature.
    assert counts["control.exec"] == 4 and counts["control.signature"] == 1
    assert 0 < counts["node.exec"] <= counts["nodes"]
    assert "node.signature" not in counts


# The effc modules that importing the pipeline and the CLI loads, and those
# of them that define a dump reader.
LOADED = r"""
import json, sys

import effc.cli, effc.pipeline

loaded = sorted(m for m in sys.modules if m.startswith("effc."))
print(json.dumps([loaded, [m for m in loaded if hasattr(sys.modules[m], "read_exeff_comp")]]))
"""


def test_importing_the_pipeline_compiles_no_dump_reader():
    # Only the tests read dumps back, so no command pays for compiling the reader.
    out = subprocess.run(
        [sys.executable, "-c", LOADED], env=subprocess_env(), capture_output=True, text=True, check=True
    ).stdout
    loaded, with_reader = json.loads(out)
    assert "effc.display" in loaded and "effc.pipeline" in loaded
    assert "effc.readers" not in loaded
    assert with_reader == []
