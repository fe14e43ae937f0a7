"""Set-up work every CLI call pays: a fresh interpreter imports the
package, parses a config and builds its model and observable pair.

    python3 perfbench/setup_probe.py '<config JSON>'   (with PYTHONPATH=src)
"""

import json
import sys

from screened_mc.exp_harness import build_model, build_pair, parse_config

config = parse_config(json.loads(sys.argv[1]))
build_pair(build_model(config.model), config.observables)
