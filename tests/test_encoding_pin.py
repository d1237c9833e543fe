"""The encoders' output, pinned by SHA-1.

Every clause set the filter lock and the pebbling encoder build, with its
variable numbering and the instances' assumptions, hashes to a fixed
digest. A change that moves an encoding fails here in milliseconds, before
the query digests of `scripts/query_digest.py` move; one that means to
move it updates the pin and says so in CHANGES.md, as it does the query
digests.
"""

import hashlib
from pathlib import Path

import pytest

from ipdr.pebbling import encode_pebbling, load_dag
from ipdr.peterson import encode_peterson

ROOT = Path(__file__).resolve().parent.parent


def encoding_digest(family) -> str:
    s = family.system
    parts = (
        s.nvars, s.state_vars, s.primed_vars,
        [c.lits for c in s.init], [c.lits for c in s.trans],
        [c.lits for c in s.prop], [c.lits for c in s.defs],
        sorted(s.never_decided), sorted(s.guards),
        [(i.label, i.assumptions) for i in family.instances],
    )
    return hashlib.sha1(repr(parts).encode()).hexdigest()


@pytest.mark.parametrize("encode, digest", [
    (lambda: encode_peterson(3, [0, 1, 2]),
     "aed539e9be97d0b1bc8a22901234ececf7fb3f29"),
    (lambda: encode_pebbling(load_dag(str(ROOT / "benchmarks" / "ham7tc.tfc")),
                             list(range(15, 24)), "constraining"),
     "6b09996a265d141a83ceb9308260c5e5a4a486a6"),
], ids=["lock3", "ham7tc"])
def test_encoding_is_pinned(encode, digest):
    assert encoding_digest(encode()) == digest
