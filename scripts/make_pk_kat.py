"""Capture DH / Schnorr / RA-TLS known-answer vectors from the checkout on the path.

The DH and membership sections of ``tests/crypto/data/pk_kat.json`` are the
bytes and verdicts of commit ead9130 (the public-key code before the Jacobi
membership test and the fixed-base table for ``G``);
``tests/crypto/test_pk_kat.py`` pins every later ``repro.crypto.group`` /
``dh`` to them and asserts a digest of each section, so they cannot be
regenerated into something else.  They are *function* vectors: the DH cases
are built from explicit private exponents -- most of them full-length, so
their public keys come from the built-in ``pow``, not from the 256-bit comb --
and never through ``DHKeyPair.generate()``.  The Schnorr section was
regenerated, on purpose, in PR 23, when quote signatures moved from the
order-``Q`` subgroup of the DH group to the 256-bit-order signature group
(``SIG_P``, ``SIG_Q``, ``SIG_G``): same case names, new group, its digest
asserted from then on.  The two RA-TLS first-ciphertext pairs depend on which
keys a random source yields and on the quote signatures, so they were
regenerated with it (and once before, in PR 22, when the ephemeral-key draw
became ``group.random_short_scalar``).

``--check`` regenerates the document in memory from the code on the path and
diffs it against the committed file (CI runs it next to the layering check).
Re-running without ``--check`` only re-derives the file from the code under
test; do that deliberately, never to make a test pass.

``group.random_sig_scalar`` and ``group.random_short_scalar`` are pinned to
SHAKE-256-derived values, so every key, nonce, signature, transcript and
session key is a function of the labels below.  The test module imports this
file for those derivations and case builders.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import pathlib
import sys
from unittest import mock

from repro.crypto import group
from repro.crypto.dh import DHKeyPair, DHPublicKey
from repro.crypto.signature import SigningKey
from repro.sgx.attestation import AttestationService, QuotePolicy
from repro.sgx.enclave import EnclaveBuildConfig, EnclaveCode
from repro.sgx.measurement import EnclaveMeasurement
from repro.sgx.platform import SGX2, SgxPlatform
from repro.sgx.ratls import RatlsPeer, perform_handshake

OUT = pathlib.Path(__file__).resolve().parent.parent / "tests/crypto/data/pk_kat.json"
SOURCE = "scripts/make_pk_kat.py run against commit ead9130"
SCHNORR_SOURCE = "regenerated on purpose in PR 23: quote signatures on the (2048, 256) group"
RATLS_SOURCE = SCHNORR_SOURCE + " (and in PR 22: ephemeral DH keys are 256 bits)"

MEMBERSHIP_COUNT = 1000
DH_PEERS = ("dh:peer:0", "dh:peer:1")


def derived(label: str, size: int) -> int:
    """A ``size``-byte integer that is a function of ``label`` only."""
    return int.from_bytes(hashlib.shake_256(label.encode()).digest(size), "big")


def scalar(label: str) -> int:
    """A full-length DH exponent in ``[1, Q)`` for ``label`` (264 bytes: no visible modulo bias)."""
    return derived(label, 264) % (group.Q - 1) + 1


def sig_scalar(label: str) -> int:
    """A Schnorr key or nonce in ``[1, SIG_Q)`` for ``label`` (40 bytes: no visible modulo bias)."""
    return derived(label, 40) % (group.SIG_Q - 1) + 1


def short_scalar(label: str) -> int:
    """An exponent in ``[1, 2^256)`` for ``label`` (40 bytes: no visible modulo bias)."""
    return derived(label, 40) % ((1 << group.SHORT_SCALAR_BITS) - 1) + 1


@contextlib.contextmanager
def pinned_scalars(source):
    """Pin ``group.random_sig_scalar`` and ``group.random_short_scalar`` to ``source``.

    A list of scalars is what ``random_sig_scalar`` returns, in order (all
    must be consumed).  A label stands for the endless sequence of draws of
    either kind: the ``i``-th draw is ``sig_scalar("<label>:<i>")`` when it is
    a Schnorr one and ``short_scalar("<label>:<i>")`` when it is a DH key.
    """
    if isinstance(source, str):
        labels = (f"{source}:{i}" for i in itertools.count())
        pins = {
            "random_sig_scalar": lambda: sig_scalar(next(labels)),
            "random_short_scalar": lambda: short_scalar(next(labels)),
        }
    else:
        values = iter(source)
        pins = {"random_sig_scalar": lambda: next(values)}
    with mock.patch.multiple(group, **pins):
        yield
    if not isinstance(source, str) and next(values, None) is not None:
        raise AssertionError("pinned scalars left unconsumed")


# -- Diffie-Hellman -------------------------------------------------------------


def dh_privates() -> dict[str, int]:
    named = {
        "one": 1,
        "two": 2,
        "q-1": group.Q - 1,
        "q-2": group.Q - 2,
        "64-bit": derived("dh:64-bit", 8) | 1 << 63,
        "top-bit": 1 << 2045,
    }
    named.update({f"random-{i}": scalar(f"dh:private:{i}") for i in range(6)})
    return named


def dh_pair(private: int) -> DHKeyPair:
    """The key pair of an explicit private exponent of any length."""
    return DHKeyPair(private=private, public=DHPublicKey(pow(group.G, private, group.P)))


def dh_peer(label: str) -> DHPublicKey:
    return dh_pair(scalar(label)).public


def dh_case(name: str, private: int) -> dict:
    pair = dh_pair(private)
    return {
        "name": name,
        "private": hex(private),
        "public": pair.public.to_bytes().hex(),
        "shared": {
            label: pair.shared_secret(dh_peer(label)).hex() for label in DH_PEERS
        },
    }


# -- Schnorr --------------------------------------------------------------------


def schnorr_specs() -> list[dict]:
    key, nonce = sig_scalar("schnorr:key"), sig_scalar("schnorr:nonce")
    specs = [
        {"name": "plain", "key": key, "nonce": nonce, "message": b"message"},
        {"name": "empty-message", "key": key, "nonce": nonce, "message": b""},
        {
            "name": "long-message",
            "key": key,
            "nonce": sig_scalar("schnorr:nonce:long"),
            "message": hashlib.shake_256(b"schnorr:message").digest(1000),
        },
        {"name": "nonce-one", "key": key, "nonce": 1, "message": b"m"},
        {"name": "nonce-q-1", "key": key, "nonce": group.SIG_Q - 1, "message": b"m"},
        {
            "name": "nonce-64-bit",
            "key": key,
            "nonce": derived("schnorr:64-bit", 8) | 1 << 63,
            "message": b"m",
        },
        {"name": "key-one", "key": 1, "nonce": nonce, "message": b"m"},
        {"name": "key-q-1", "key": group.SIG_Q - 1, "nonce": nonce, "message": b"m"},
    ]
    specs += [
        {
            "name": f"random-{i}",
            "key": sig_scalar(f"schnorr:key:{i}"),
            "nonce": sig_scalar(f"schnorr:nonce:{i}"),
            "message": f"message {i}".encode(),
        }
        for i in range(4)
    ]
    return specs


def schnorr_case(name: str, key: int, nonce: int, message: bytes) -> dict:
    with pinned_scalars([key]):
        signing_key = SigningKey.generate()
    with pinned_scalars([nonce]):
        signature = signing_key.sign(message)
    return {
        "name": name,
        "key": hex(key),
        "nonce": hex(nonce),
        "message": message.hex(),
        "verify_key": signing_key.verify_key.to_bytes().hex(),
        "signature": signature.to_bytes().hex(),
    }


# -- RA-TLS ---------------------------------------------------------------------


def ratls_case(mutual: bool) -> dict:
    """One ``perform_handshake`` with every scalar pinned.

    The first ciphertext of each direction depends on both DH keys, the quote
    signatures, the transcript and the derived session keys, so two short hex
    strings pin all of them.  MRENCLAVE hashes a class's *source text*; the
    enclaves get fixed measurements so the vectors do not move with formatting.
    """
    name = "mutual" if mutual else "one-way"
    with pinned_scalars(f"ratls:{name}"):
        attestation = AttestationService()
        platform = SgxPlatform(SGX2, attestation, platform_id="pk-kat-node")

        def attested(role: str):
            enclave = platform.create_enclave(
                EnclaveCode(), EnclaveBuildConfig(memory_bytes=1 << 20)
            )
            enclave.measurement = EnclaveMeasurement(
                hashlib.sha256(f"pk-kat:{role}".encode()).hexdigest()
            )
            peer = RatlsPeer(role, enclave=enclave, quoter=platform.quote)
            return peer, QuotePolicy(expected_mrenclave=enclave.measurement)

        server, client_requires = attested("server")
        client, server_requires = (
            attested("client") if mutual else (RatlsPeer("client"), None)
        )
        client_end, server_end = perform_handshake(
            client, server, attestation, client_requires, server_requires
        )
    c2s, s2c = client_end.send(b"kat"), server_end.send(b"kat")
    assert server_end.recv(c2s) == b"kat" and client_end.recv(s2c) == b"kat"
    return {"name": name, "mutual": mutual, "c2s": c2s.hex(), "s2c": s2c.hex()}


# -- subgroup membership ----------------------------------------------------------


def membership_value(i: int) -> int:
    """The ``i``-th seeded probe: five shapes, two of them with a known verdict."""
    shape = i % 5
    if shape == 0:
        return derived(f"member:{i}", 256)  # uniform 2048-bit: about half are residues
    if shape == 1:
        return pow(derived(f"member:{i}", 256), 2, group.P)  # a square: member
    if shape == 2:
        return group.P - pow(derived(f"member:{i}", 256), 2, group.P)  # -square: not
    if shape == 3:
        return derived(f"member:{i}", 128)
    return derived(f"member:{i}", 8)


def membership_edges() -> list[int]:
    P, Q = group.P, group.Q
    return [
        *range(100),  # 0, 1, 2, G and every non-residue below 100
        *(-1, -4, Q - 1, Q, Q + 1, P - 4, P - 2, P - 1, P, P + 1, P + 4, P + 5),
        *(2 * P - 1, 2 * P + 4, 1 << 2048, 1 << 4096),
    ]


def membership() -> dict:
    def verdicts(values) -> str:
        return "".join("1" if group.is_group_element(x) else "0" for x in values)

    edges = membership_edges()
    return {
        "count": MEMBERSHIP_COUNT,
        "seeded": verdicts(membership_value(i) for i in range(MEMBERSHIP_COUNT)),
        "edges": [[hex(x), verdict == "1"] for x, verdict in zip(edges, verdicts(edges))],
    }


# -------------------------------------------------------------------------------


def build_document() -> dict:
    return {
        "source": SOURCE,  # of the dh and membership sections
        "schnorr_source": SCHNORR_SOURCE,
        "ratls_source": RATLS_SOURCE,
        "derivation": (
            "int = int.from_bytes(shake_256(label).digest(n), 'big'); "
            "scalar(label) = int(label, 264) % (Q - 1) + 1; "
            "short_scalar(label) = int(label, 40) % (2^256 - 1) + 1; "
            "sig_scalar(label) = int(label, 40) % (SIG_Q - 1) + 1"
        ),
        "dh": [dh_case(name, private) for name, private in dh_privates().items()],
        "schnorr": [schnorr_case(**spec) for spec in schnorr_specs()],
        "ratls": [ratls_case(mutual=False), ratls_case(mutual=True)],
        "membership": membership(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="regenerate in memory and diff against the committed file",
    )
    args = parser.parse_args(argv)
    document = build_document()
    if args.check:
        committed = json.loads(OUT.read_text())
        stale = sorted(
            key for key in {*document, *committed} if document.get(key) != committed.get(key)
        )
        if stale:
            print(f"{OUT} does not reproduce: {', '.join(stale)} differ", file=sys.stderr)
            return 1
        sizes = {key: len(document[key]) for key in ("dh", "schnorr", "ratls")}
        sizes["membership"] = MEMBERSHIP_COUNT + len(document["membership"]["edges"])
        print(f"{OUT.name} reproduces ({', '.join(f'{n} {key}' for key, n in sizes.items())})")
        return 0
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
