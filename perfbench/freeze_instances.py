"""Write data/instances.txt: the algebras the soundness sweep runs on.

The file holds, as `render_algebra` text, the two builtin instances chain2
and diamond followed by the 50 instances of `random_instances(50, seed=101)`,
the set the acceptance suite sweeps.  Freezing them keeps the sweep fixed when
the generator changes.  Run from the repository root:

    python3 perfbench/freeze_instances.py
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from fdlg.algebra import builtin, random_instances, render_algebra  # noqa: E402
from soundness_sweep import COUNT, DATA, GENERATOR_SEED            # noqa: E402


def main() -> None:
    algebras = [builtin("chain2"), builtin("diamond")]
    algebras += random_instances(COUNT, seed=GENERATOR_SEED)
    DATA.write_text("".join(render_algebra(a) for a in algebras))


if __name__ == "__main__":
    main()
