"""Child process that measures set-up: what every CLI invocation pays before
it does any work.  Imports ``lbinorm.cli`` and builds each statistic given as
JSON ``[[test, score, group], ...]`` the way the CLI does, with the CLI's
default quadrature and inversion settings (the stable score is tabulated
here).  Its wall time, measured by the parent, is one ``setup_s`` sample.
"""

import json
import sys

from lbinorm import cli
from lbinorm.calibration import make_statistic
from lbinorm.stable import InversionConfig
from lbinorm.univariate import QuadratureConfig

if __name__ == "__main__":
    for test, score, group in json.loads(sys.argv[1]):
        if score is None:
            make_statistic(test, group=group or "lt")
        else:
            make_statistic(test, score=cli.parse_score(score, InversionConfig()),
                           quad_cfg=QuadratureConfig())
