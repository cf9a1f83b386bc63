"""CLI byte identity: stdout of a fixed flag corpus against recorded digests.

Each command runs `cli.main` in process, with the cold `ZeroCache` the CLI
builds per call.  The digests were recorded from a known-good build; a
change that means to alter the bytes on stdout has to say why and record
new ones.  The JSON spectrum digests were re-recorded when the request
record lost its grouping tolerance and `schema_version` became "2"; the
bytes are otherwise unchanged.  `inverse` is left out: its bytes depend on BLAS summation order.
"""

import contextlib
import hashlib
import io

import pytest

from polyspec import Polydisc, ZeroCache, assemble_spectrum, cli

CORPUS = [
    ("spectrum --radii 1,1.5 --q 1 --max 10 --format json", "712c14020f5cba0dac02ad3f9a4002a75f80b539925d96531928904fb307ba19"),
    ("spectrum --radii 1,1.5 --q 1 --max 10 --format csv", "9fababfd6cea6f0bf274992474281ee487aaa043631f219053b8e2a329324ee7"),
    ("spectrum --radii 1,1.5 --q 1 --max 10 --format table", "07efacd79ebd3d43df9b93288464e842ed96d930dcb295b3d693e904460252bb"),
    ("spectrum --radii 1,1.5,1.8 --q 1 --max 9.5 --format json", "8370d22995014004a148fefbb3a170d032ed14f3232d627bc56b33bc73e60d5b"),
    ("spectrum --radii 1,1.5,1.8 --q 1 --max 9.5 --format csv", "09ee0644f0b0651af2872d43eb2a04bcfcddecbeaf0841c7764280de813f361a"),
    ("spectrum --radii 1,1.5,1.8 --q 1 --max 9.5 --format table", "d26a3b7e841e599d86996a4a5e1e013eb7416137d6fa68e730dc48073130ff08"),
    ("spectrum --radii 1,1.5,1.8 --q 2 --max 9.5 --format json", "ab1b01826d0887737da6a001723a7bab4a52af2464af6d0e144e298d766cf574"),
    ("spectrum --radii 1,1.5,1.8 --q 2 --max 9.5 --format csv", "aa81ea228f65bfe99e886f10ca2ac327c9a93b11bf78c4e9fc084041bc768817"),
    ("spectrum --radii 1,1.5,1.8 --q 2 --max 9.5 --format table", "5930d5bf2a37d02dd39f297bfb76001f868705c4c8101733a7d336e9ea92487e"),
    ("spectrum --radii 1,1,1.3,2 --q 1 --max 6.5 --format json", "d57517689cc4d5a364be857e634ddd87a14e9b8d77ace4ef3ee5db1da6a875c6"),
    ("spectrum --radii 1,1,1.3,2 --q 1 --max 6.5 --format csv", "6a458a29dc607bfb07d1df8964356e3179c76b57cd1bb76d41ef4ecb3c9055fd"),
    ("spectrum --radii 1,1,1.3,2 --q 1 --max 6.5 --format table", "a4fcd2c749d6c2d07e4a6a40bb14c1d3c3f596274c3f46793d70b04e4a46a07f"),
    ("spectrum --radii 1,1,1.3,2 --q 2 --max 6.5 --format json", "b6a547939d12e06b18df5f3b0c1916deb5fdfa5589071402074ca382c4e307c1"),
    ("spectrum --radii 1,1,1.3,2 --q 2 --max 6.5 --format csv", "0dad81f3e5e7df4b60f6911d43f4b603dd985150497e372f1ce43a6f38ace7b8"),
    ("spectrum --radii 1,1,1.3,2 --q 2 --max 6.5 --format table", "5c6b3d8070bd8a371e246c98406dda1ced224e7deefe8647a00daaa3742ac091"),
    ("spectrum --radii 1,1,1.3,2 --q 3 --max 6.5 --format json", "f05a9bf8ce4b78fa26f615d6cade4ea58a0e39469de0e6d425539e15dc500152"),
    ("spectrum --radii 1,1,1.3,2 --q 3 --max 6.5 --format csv", "5007ed1f046dbdff4224aabaeef7d54bd13611ad252abcaaaa5d58ecebfdb0a6"),
    ("spectrum --radii 1,1,1.3,2 --q 3 --max 6.5 --format table", "6cb4c6c036b7461a4c9d4c35d68241685d4bb9aa88c2edbaf6ee316895759943"),
    ("spectrum --radii 1,1 --q 1 --max 14 --witnesses 1", "d981eb67a4253079370a8a70787b2c16546cb567dca5f67d881a5b295b4a638f"),
    # equal radii: classes with equal value bits and equal J interleave in
    # the witness lists
    ("spectrum --radii 1,1,1 --q 1 --max 20 --witnesses 1000 --format json", "da8ec0183ffb94dfb3c52d65032ee03bc55fd282ac9b8fdefb67972169e0254b"),
    ("spectrum --radii 1,1,1,1 --q 2 --max 12 --witnesses 1000", "abb8963fbe029782b3401ef5ca6f4a52d1cd8212f2fb6dec2ecd17944dde1b1a"),
    ("spectrum --radii 1,1,2 --q 2 --max 16 --witnesses 0", "2c94e3f7b5c133691b1e10af744b6fe0393eed2e36c3b0cc76984124055c10bd"),
    ("spectrum --radii 1,1.5,1.8 --q 2 --max 0.5", "3bb65dcef9a6d8c3c78bea45cabb1d7e08c0b79ff3fd53ebe56b9e2ad7f429df"),
    ("bottom --radii 1,1.5,1.8 --q 2", "a1ab571049252c4f4e3e99058b14eb3b8329d2d0dc57cb381a6588631e3b62ff"),
    ("bottom --radii 1,1,1.3,2 --q 3 --format table", "9e57a560ba483623b1ab2a8764a197459970375e4b866bf4e7f8a8dedf4d6844"),
    ("zeros --order 3 --count 5", "7bfed39881bc58b531e012dde1eba810042ca5a73f64d6604486c69aa9b3e65b"),
    ("zeros --order -2 --count 4 --format csv", "922fdef496b179c4361ba79d0a73a68a132f8fb73c1baf7cae67ab5d1ff84321"),
    ("zeros --order 5 --count 3 --format table", "e1bb81a1866ed7a83cff73356070e21e9a49d06398b537b7fb0bc45d93d6b048"),
    ("verify --suite zeros", "9c59f71010ede2ea34fc8a4588339fe2724dc39820149584e4fe466f58fedfd6"),
    ("verify --suite zeros --format table", "e67b45c278db76ce68deac2432be220f05cb694f27d94f5042829ea35b69dedf"),
    ("verify --suite modes", "6f16cad7000f2637ee051660545474a8c81ba4358d586ac8c880c4a199ec7a94"),
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
