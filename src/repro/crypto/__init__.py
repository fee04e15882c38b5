"""From-scratch cryptography substrate.

SeSeMI encrypts models and requests with AES-GCM, establishes secure
channels with an ephemeral Diffie-Hellman handshake, and authenticates
attestation quotes with digital signatures.  This package implements all
of those primitives from scratch (no external crypto dependency):

- :mod:`repro.crypto.aes` -- AES block cipher, numpy-vectorised for bulk.
- :mod:`repro.crypto.gcm` -- AES-GCM AEAD validated against NIST vectors.
- :mod:`repro.crypto.hashes` -- SHA-256 / HMAC / HKDF helpers.
- :mod:`repro.crypto.dh` -- finite-field Diffie-Hellman (RFC 3526 group 14).
- :mod:`repro.crypto.signature` -- Schnorr signatures over the same group.
- :mod:`repro.crypto.keys` -- symmetric key material and fingerprints.
"""
