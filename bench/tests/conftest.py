import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from run import use_checkout  # noqa: E402

use_checkout()
