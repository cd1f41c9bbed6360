"""The measurement path must not import scipy.

scipy serves only the regression p-values of Tables 4-6; importing it
costs about a second and tens of MB, which a service or an observed
campaign would pay at every start for nothing.
"""

import os
import subprocess
import sys

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))


def test_measurement_path_does_not_import_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    code = (
        "import sys\n"
        "import repro.service, repro.analysis.phases, "
        "repro.analysis.availability\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
