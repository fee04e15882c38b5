"""OpenWhisk-like serverless platform substrate (simulated).

Controller scheduling, invoker nodes with SGX hardware, sandbox
containers with keep-alive, cloud blob storage -- everything SeSeMI's
three components sit on top of, reproduced with the behaviours the
evaluation measures (cold starts, memory-based placement, per-request
controller overhead, 128 MB memory granularity).
"""
