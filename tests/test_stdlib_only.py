"""The package runs on the standard library alone."""

import os
import subprocess
import sys
from pathlib import Path

import matchstream

PACKAGE = Path(matchstream.__file__).resolve().parent

# a fresh interpreter imports every module of the package and prints the
# top-level names of the modules that the imports loaded
PROBE = """
import sys
before = set(sys.modules)
{imports}
print(*sorted({{name.partition(".")[0] for name in set(sys.modules) - before}}))
"""


def test_importing_the_package_loads_only_the_standard_library():
    modules = sorted(path.stem for path in PACKAGE.glob("*.py")
                     if path.stem not in ("__init__", "__main__"))
    imports = "\n".join(f"import matchstream.{name}" for name in modules)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(PACKAGE.parent), env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", PROBE.format(imports=imports)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "matchstream" in loaded
    outside = sorted(loaded - sys.stdlib_module_names - {"matchstream"})
    assert not outside, f"modules outside the standard library: {outside}"
