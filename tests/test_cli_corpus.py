"""CLI byte identity: stdout of a fixed flag corpus against recorded digests.

Each command runs `cli.main` in process, with the cold `ZeroCache` the CLI
builds per call.  The digests were recorded from a known-good build; a
change that means to alter the bytes on stdout has to say why and record
new ones.  `inverse` is left out: its bytes depend on BLAS summation order.
"""

import contextlib
import hashlib
import io

import pytest

from polyspec import Polydisc, ZeroCache, assemble_spectrum, cli

CORPUS = [
    ("spectrum --radii 1,1.5 --q 1 --max 10 --format json", "492d20812e58d22eea2a6840d492cb3c5a130fefccb09d502804b8a160ebc7e0"),
    ("spectrum --radii 1,1.5 --q 1 --max 10 --format csv", "9fababfd6cea6f0bf274992474281ee487aaa043631f219053b8e2a329324ee7"),
    ("spectrum --radii 1,1.5 --q 1 --max 10 --format table", "07efacd79ebd3d43df9b93288464e842ed96d930dcb295b3d693e904460252bb"),
    ("spectrum --radii 1,1.5,1.8 --q 1 --max 9.5 --format json", "623a5a6a7229fd12901be751c506cc4c91c9564bf0b396e4479d9f39189da131"),
    ("spectrum --radii 1,1.5,1.8 --q 1 --max 9.5 --format csv", "09ee0644f0b0651af2872d43eb2a04bcfcddecbeaf0841c7764280de813f361a"),
    ("spectrum --radii 1,1.5,1.8 --q 1 --max 9.5 --format table", "d26a3b7e841e599d86996a4a5e1e013eb7416137d6fa68e730dc48073130ff08"),
    ("spectrum --radii 1,1.5,1.8 --q 2 --max 9.5 --format json", "41e80999540612c0db64a527aa9277566a7d93546434c5cbb605b6703379dc36"),
    ("spectrum --radii 1,1.5,1.8 --q 2 --max 9.5 --format csv", "aa81ea228f65bfe99e886f10ca2ac327c9a93b11bf78c4e9fc084041bc768817"),
    ("spectrum --radii 1,1.5,1.8 --q 2 --max 9.5 --format table", "5930d5bf2a37d02dd39f297bfb76001f868705c4c8101733a7d336e9ea92487e"),
    ("spectrum --radii 1,1,1.3,2 --q 1 --max 6.5 --format json", "2c4d158be5fc1b3b779d8095b40d61653918687d1892a9f58c0110ccb3bbdf6e"),
    ("spectrum --radii 1,1,1.3,2 --q 1 --max 6.5 --format csv", "6a458a29dc607bfb07d1df8964356e3179c76b57cd1bb76d41ef4ecb3c9055fd"),
    ("spectrum --radii 1,1,1.3,2 --q 1 --max 6.5 --format table", "a4fcd2c749d6c2d07e4a6a40bb14c1d3c3f596274c3f46793d70b04e4a46a07f"),
    ("spectrum --radii 1,1,1.3,2 --q 2 --max 6.5 --format json", "c9dee6c5ddcc27551de94f2c8da1365ea11402ade0df16009e995ddfa3f9bc14"),
    ("spectrum --radii 1,1,1.3,2 --q 2 --max 6.5 --format csv", "0dad81f3e5e7df4b60f6911d43f4b603dd985150497e372f1ce43a6f38ace7b8"),
    ("spectrum --radii 1,1,1.3,2 --q 2 --max 6.5 --format table", "5c6b3d8070bd8a371e246c98406dda1ced224e7deefe8647a00daaa3742ac091"),
    ("spectrum --radii 1,1,1.3,2 --q 3 --max 6.5 --format json", "68d5865a32c14e1d9f6a39ba62a0825ff9fcdb7594d04b4c26208ffef7586bb9"),
    ("spectrum --radii 1,1,1.3,2 --q 3 --max 6.5 --format csv", "5007ed1f046dbdff4224aabaeef7d54bd13611ad252abcaaaa5d58ecebfdb0a6"),
    ("spectrum --radii 1,1,1.3,2 --q 3 --max 6.5 --format table", "6cb4c6c036b7461a4c9d4c35d68241685d4bb9aa88c2edbaf6ee316895759943"),
    ("spectrum --radii 1,1 --q 1 --max 14 --witnesses 1", "00da3a69a1495110c46a609e7a04ee66eaba39e113123ef9bb30b842a5e6f79c"),
    # equal radii: classes with equal value bits and equal J interleave in
    # the witness lists
    ("spectrum --radii 1,1,1 --q 1 --max 20 --witnesses 1000 --format json", "90dc4b5cf52de634cb3316d9813c6d3a404e5589bc2455dc33d7b186c40c6236"),
    ("spectrum --radii 1,1,1,1 --q 2 --max 12 --witnesses 1000", "2820cbe773961ed05d09ecd3add238346e33f02fcbce668cec9799335e5f2876"),
    ("spectrum --radii 1,1,2 --q 2 --max 16 --witnesses 0", "a6807ffdd9587a3557adcca2e56552cb71dd863d4151efcdae82cd20ccd8cde7"),
    ("spectrum --radii 1,1.5,1.8 --q 2 --max 0.5", "3f5660fa6876a7ee5b861bacaa99cddf0bcad4cf476f78c4d8a42a180f2ee039"),
    ("bottom --radii 1,1.5,1.8 --q 2", "a1ab571049252c4f4e3e99058b14eb3b8329d2d0dc57cb381a6588631e3b62ff"),
    ("bottom --radii 1,1,1.3,2 --q 3 --format table", "9e57a560ba483623b1ab2a8764a197459970375e4b866bf4e7f8a8dedf4d6844"),
    ("zeros --order 3 --count 5", "7bfed39881bc58b531e012dde1eba810042ca5a73f64d6604486c69aa9b3e65b"),
    ("zeros --order -2 --count 4 --format csv", "922fdef496b179c4361ba79d0a73a68a132f8fb73c1baf7cae67ab5d1ff84321"),
    ("zeros --order 5 --count 3 --format table", "e1bb81a1866ed7a83cff73356070e21e9a49d06398b537b7fb0bc45d93d6b048"),
]


@pytest.mark.parametrize("flags,digest", CORPUS, ids=[flags for flags, _ in CORPUS])
def test_stdout_matches_recorded_digest(flags, digest):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(flags.split()) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


def test_cold_cache_computes_only_the_zeros_it_needs():
    # each disc's factor lists stop where the other discs' ground values
    # leave no room; lists cut at the full 4 * lambda_max would need 66 zeros
    cache = ZeroCache()
    assemble_spectrum(Polydisc((1.0, 1.5, 1.8)), 2, 14.0, cache=cache)
    assert len(cache.known_items()) == 55
