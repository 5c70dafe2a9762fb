"""One digest over the classifier's verdicts and the scan tags' hits. Both
read the paper's congruence hypotheses (Broadhurst II, the pqrs and pqrst
chains, r = +/-1 (mod pq)). A change that restates those hypotheses must
leave every verdict and every hit as it was; the expected digest was
recorded before such a change, and any differing byte changes it."""

import hashlib

from cycloforge.domains import prime_tuples
from cycloforge.flatness import _TAGS, SCAN_TAGS, classify

# chains and quinary members beyond the enumerated bounds
EXTRA = [(3, 7, 41, 1721), (5, 7, 71, 4969), (3, 5, 31, 929, 1727939)]
TAG_BOUND = 2 * 10**4
# pqrs2's domain, chain4, holds nothing below 1 481 781
PQRS2_BOUND = 2 * 10**6

DIGEST = "a03dbdda249bed776a358a2435478718b7e0339279da11f75c16a34a0a31a89e"


def _lines():
    for order, bound in ((3, 10**5), (4, 10**6), (5, 10**7)):
        for _, fs in prime_tuples(order, 1, bound):
            yield repr(classify(fs))
    for fs in EXTRA:
        yield repr(classify(fs))
    for tag in SCAN_TAGS:
        spec = _TAGS[tag]
        bound = PQRS2_BOUND if tag == "pqrs2" else TAG_BOUND
        for forged in (1, 2):
            height = lambda fs, h=forged: h  # noqa: E731
            for n, fs in spec.domain(1, bound):
                yield f"{tag} {forged} {n}: {list(spec.test(n, fs, height, bound))!r}"


def test_verdicts_and_tag_hits_keep_their_bytes():
    h = hashlib.sha256()
    count = 0
    for line in _lines():
        h.update(line.encode() + b"\n")
        count += 1
    # 115 644 enumerated inputs, the 3 extra ones, and one line per tag item
    assert count == 152_779
    assert h.hexdigest() == DIGEST
