"""formevol runs on numpy alone.

scipy is a test dependency only: the oracles in ``helpers`` and a few tests
use it, so the check runs in a fresh interpreter.  There, importing the
package and running every subcommand on the shipped configs, plus a
``rotating_frame`` family and the pencil constants, must load no ``scipy``
module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]

SCRIPT = """
import json, sys
import formevol, formevol.cli

configs, out = sys.argv[1:]
rotating = out + "/rotating_frame.ini"
with open(rotating, "w") as handle:
    handle.write("[model]\\nkind = rotating_frame\\ndim = 4\\nT = 1.0\\n"
                 "[audit]\\ngrid_points = 17\\n[time]\\nsteps = 16\\n")
runs = [("audit", configs + "/audit_circle.ini"), ("propagate", configs + "/propagate_circle.ini"),
        ("converge", configs + "/converge_circle.ini"), ("spectrum", configs + "/audit_circle.ini"),
        ("audit", rotating), ("propagate", rotating)]
for j, (command, config) in enumerate(runs):
    assert formevol.cli.main([command, "--config", config, "--out", f"{out}/{j}"]) == 0
family = formevol.synthetic_family("rotating_frame", 4, 1.0)
family.source.exact_propagator(0.2, 0.9)
formevol.equivalence_constant(family.scale_at(0.0), family.scale_at(0.5))
formevol.duality_constant(family.scale_at(0.0), family.scale_at(0.5))
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_no_scipy_module_is_loaded(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "configs"), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []
