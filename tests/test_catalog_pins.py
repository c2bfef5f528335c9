"""Every catalog divergence at the library level, on a seeded corpus, pinned bit for bit.

``data/catalog_pins.json`` holds what the public function of each
``cli.DIVERGENCES`` entry returned or raised on every case of
``corpora/catalog.py``.  ``PYTHONPATH=src python tests/pins.py`` regenerates
the file.
"""

import pins
from corpora.catalog import CORPUS
from qcdiv import cli
from test_pins import matches_its_pin


def test_the_corpus_reaches_every_div_values_errors_and_a_tie():
    assert {case[0] for case in CORPUS.values()} == set(cli.DIVERGENCES)
    pinned = pins.load("catalog_pins.json").values()
    assert {"result", "error"} <= {key for pin in pinned for key in pin}
    assert any(pin["result"][1] for pin in pinned if "result" in pin)  # a tie-sensitive value


test_divergence_matches_its_pin = matches_its_pin("catalog_pins.json")
