"""Model inference substrate: graph IR, two runtimes, and the model zoo.

The two runtimes reproduce the memory behaviours the paper contrasts:
:mod:`repro.mlrt.tvm_rt` (graph executor whose buffers include weight
copies) and :mod:`repro.mlrt.tflm_rt` (interpreter with an
intermediates-only tensor arena).
"""
