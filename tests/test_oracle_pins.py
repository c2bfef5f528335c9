"""The oracles' outputs on a seeded corpus, pinned bit for bit.

``data/oracle_pins.json`` holds what each call of ``corpora/oracle.py``
returned or raised, as ``pins.outcome`` encodes it.  ``PYTHONPATH=src python
tests/pins.py`` regenerates the file, and only a deliberate change of the
oracles' output should.
"""

from test_pins import matches_its_pin

test_oracle_matches_its_pin = matches_its_pin("oracle_pins.json")
