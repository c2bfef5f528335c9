"""The corpora of qcdiv's pin files, one module per file of ``data/``.

Each module has a ``CORPUS`` that maps a key to a case and a ``record(case)``
that makes the case's pinned record.  They import neither pytest nor
hypothesis, so that ``python tests/pins.py`` regenerates every pin file under
any CPython from 3.10 up; ``pins.GROUPS`` names the module of each file.
"""
