"""Quickstart: one encrypted inference, end to end.

Walks the three workflow stages of the paper (Section III) with real
cryptography on a small runnable MobileNet, using the session API:

1. key setup      -- ``env.deploy`` registers the owner, encrypts and
                     uploads the model, and hands its key to KeyService;
2. deployment     -- ``handle.grant`` authorises the user for the exact
                     SeMIRT enclave identity the deployment targets;
3. request serving -- ``session.infer`` encrypts the request, cold-starts
                     a SeMIRT enclave (which fetches keys over mutual
                     RA-TLS), executes, and decrypts the result.

Every request is traced: the cold call's span tree covers all nine
serving stages of the paper's Figure 4.

Run with:  python examples/quickstart.py
"""

import numpy as np

from repro.core.deployment import SeSeMIEnvironment
from repro.core.stages import InvocationKind
from repro.mlrt.zoo import build_mobilenet
from repro.obs import analysis


def main() -> None:
    # --- the cluster: attestation service, storage, KeyService enclave ---
    env = SeSeMIEnvironment()
    print(f"KeyService enclave identity E_K = {env.keyservice.measurement}")

    # --- stages 1 + 2: key setup and service deployment ---
    model = build_mobilenet()
    handle = env.deploy(model, "quickstart-model", owner="model-owner")
    handle.grant("model-user")
    print(f"target SeMIRT enclave identity E_S = {handle.measurement}")
    artifact = env.storage.get("models/quickstart-model")
    print(f"uploaded encrypted artifact: {len(artifact)} bytes (ciphertext)")

    # --- stage 3: request serving ---
    x = np.random.default_rng(0).standard_normal(model.input_spec.shape)
    x = x.astype(np.float32)
    with env.session("model-user", "quickstart-model") as session:
        prediction = session.infer(x)
        # The session launched exactly the enclave the handle promised:
        assert session.semirt.measurement == handle.measurement
        print("prediction (first invocation, cold path):")
        print(f"  {np.round(prediction, 4)}")

        prediction2 = session.infer(x)
        assert session.semirt.code.last_plan.kind == InvocationKind.HOT
        print("second invocation took the HOT path (keys + model + runtime cached)")
        assert np.allclose(prediction, prediction2)

    # Every request produced a span tree; the cold one covers all nine
    # Figure-4 serving stages.
    spans = env.tracer.finished_spans()
    cold = analysis.request_roots(spans)[0]
    stages = analysis.stage_seconds(spans, cold)
    print(f"cold request traced {len(stages)} serving stages:")
    for name, seconds in sorted(stages.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<20} {seconds * 1e3:8.2f} ms")

    # Cross-check against a plaintext run of the same model.
    reference = model.run_reference(x).ravel()
    assert np.allclose(prediction, reference, atol=1e-5)
    print("result matches the plaintext reference -- confidential inference works")


if __name__ == "__main__":
    main()
