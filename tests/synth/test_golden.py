"""Golden fingerprints of generated raw logs.

The raw CMCS store is the input of every calibrated number in the repo, so
its exact bytes are pinned here.  A change to generation that moves any
draw of the random stream changes these digests; an optimization of
generation must leave them as they are.
"""

import pytest

from repro.cache.fingerprint import store_fingerprint
from repro.synth.generator import LogGenerator
from repro.synth.profiles import anl_profile, sdsc_profile

#: (profile factory, raw record count, store_fingerprint) at scale 0.05,
#: seed 11.
GOLDEN = {
    "ANL": (
        anl_profile,
        145320,
        "d47edb70b86914b13388abedf3e7cf38c6465f7e6a26f58877e2afc877843223",
    ),
    "SDSC": (
        sdsc_profile,
        15839,
        "92602c80587afd8882a024f8c61da6023c3844db2b3f5bbf38c8ce06721f09e5",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_raw_store_fingerprint_is_pinned(name):
    profile, n_raw, digest = GOLDEN[name]
    raw = LogGenerator(profile(), scale=0.05, seed=11).generate().raw
    assert len(raw) == n_raw
    assert store_fingerprint(raw) == digest
