"""The paper's motivating scenario (Figure 1): hospital EHR models.

A hospital trains a disease-prediction model on sensitive electronic
health records and serves it from an untrusted cloud.  This example
exercises the access-control story end to end:

- two patients and a doctor use the model with *separate* request keys;
- the cloud provider (who sees storage and all traffic) learns nothing;
- an unauthorised user is refused keys by KeyService;
- a modified (rogue) runtime build has a different enclave identity and
  cannot obtain the model key;
- the hospital revokes a patient's access, which takes effect for every
  newly attested enclave.

Run with:  python examples/healthcare_ehr.py
"""

import numpy as np

from repro.core.deployment import SeSeMIEnvironment
from repro.core.semirt_enclave import IsolationSettings
from repro.errors import AccessDenied
from repro.mlrt.zoo import build_densenet


def patient_record(seed: int, shape) -> np.ndarray:
    """A synthetic 'imaging study' standing in for a real EHR record."""
    return np.random.default_rng(seed).standard_normal(shape).astype(np.float32)


def main() -> None:
    env = SeSeMIEnvironment()

    # The hospital deploys its diagnostic model, encrypted.
    model = build_densenet()
    handle = env.deploy(model, "diagnosis-v1", owner="hospital")
    print("hospital deployed encrypted model 'diagnosis-v1'")

    # One warm runtime instance serves every session below.
    semirt = env.launch_semirt("tvm")

    # Three authorised principals, each with their own request key.
    names = ("patient-ana", "patient-bo", "dr-lee")
    for name in names:
        handle.grant(name)
        print(f"  granted {name} access (request key released for E_S only)")

    # Each principal runs inference on their own confidential record.
    for seed, name in enumerate(names):
        record = patient_record(seed, model.input_spec.shape)
        with env.session(name, "diagnosis-v1", semirt=semirt) as session:
            scores = session.infer(record)
        print(f"{name}: diagnosis scores {np.round(scores[:3], 3)}...")

    # The doctor reviews a whole batch in one session; the scheduler
    # pipelines the requests across the enclave's TCS slots.
    batch = [patient_record(10 + i, model.input_spec.shape) for i in range(4)]
    with env.session("dr-lee", "diagnosis-v1", semirt=semirt) as session:
        results = session.infer_many(batch)
    print(f"dr-lee: reviewed a batch of {len(results)} studies")

    # --- threat 1: an unauthorised user ---
    env.connect_user("mallory")
    record = patient_record(99, model.input_spec.shape)
    try:
        with env.session("mallory", "diagnosis-v1", semirt=semirt) as session:
            session.infer(record)
    except AccessDenied as exc:
        print(f"mallory denied: {exc}")

    # --- threat 2: a rogue runtime build (different enclave identity) ---
    rogue = env.launch_semirt(
        "tvm",
        node_id="rogue-node",
        isolation=IsolationSettings(key_cache=False),  # different build!
    )
    assert rogue.measurement != semirt.measurement
    ana = env.user("patient-ana")
    enc = ana.encrypt_request("diagnosis-v1", semirt.measurement, record)
    try:
        rogue.infer(enc, ana.principal_id, "diagnosis-v1")
    except AccessDenied as exc:
        print(f"rogue enclave build denied: {exc}")

    # --- threat 3: the cloud inspects storage and traffic ---
    artifact = env.storage.get("models/diagnosis-v1")
    assert model.serialize() not in artifact
    assert record.tobytes() not in enc
    print("cloud-visible artifact and request are ciphertext only")

    # --- revocation ---
    handle.revoke("patient-bo")
    fresh = env.launch_semirt("tvm", node_id="scale-out-node")
    try:
        with env.session("patient-bo", "diagnosis-v1", semirt=fresh) as session:
            session.infer(record)
    except AccessDenied:
        print("patient-bo's access revoked: new enclaves refuse to serve them")


if __name__ == "__main__":
    main()
