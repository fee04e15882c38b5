"""Model graph IR and binary serialisation.

A :class:`Model` is a topologically-ordered operator graph plus its
weights.  :meth:`Model.serialize` packs it into a self-contained binary
artifact -- this is the plaintext the model owner encrypts with the model
key and uploads to cloud storage, and what ``MODEL_LOAD`` decrypts and
deserialises inside the enclave.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ModelError
from repro.mlrt.layers import Op, infer_shape, op_entry, run_op
from repro.mlrt.tensor import TensorSpec

_MAGIC = b"SESEMIM1"


@dataclass(frozen=True)
class GraphNode:
    """One operator application in the graph."""

    name: str
    op: str
    inputs: Tuple[str, ...]
    attrs: dict = field(default_factory=dict)


class Plan(NamedTuple):
    """A model's graph resolved against the op table for one input shape."""

    #: per node ``(node, table row, weight keys, workspace keys)``: keys
    #: into ``Model.weights`` in the op's weight order, and into ``buffers``
    nodes: Tuple[Tuple[GraphNode, Op, Tuple[str, ...], Tuple[str, ...]], ...]
    #: shape of every buffer execution touches: ``"input"``, each node's
    #: output (under the node's name) and each workspace buffer (``name#k``)
    buffers: Dict[str, Tuple[int, ...]]
    #: bound step sets parked, zero-filled, by the decoder stream that
    #: used them last (see :class:`~repro.mlrt.decoder.DecoderSession`)
    idle: list


class Model:
    """An inference model: input spec, operator graph, weights."""

    def __init__(
        self,
        name: str,
        input_spec: TensorSpec,
        nodes: Sequence[GraphNode],
        weights: Dict[str, np.ndarray],
    ) -> None:
        self.name = name
        self.input_spec = input_spec
        self.nodes: List[GraphNode] = list(nodes)
        self.weights = weights
        self._plans: Dict[Tuple[int, ...], Plan] = {}
        self._shapes = self.plan().buffers

    # -- structure ---------------------------------------------------------------

    def plan(self, input_shape: Optional[Tuple[int, ...]] = None) -> Plan:
        """Resolve the graph, once per ``(model, input shape)``.

        The result is shared by every runtime and decoder stream of the
        model (a model is immutable after ``MODEL_LOAD``; two threads
        racing here build equal plans and one wins).  An unknown op or a
        malformed graph is a :class:`ModelError` here, never at
        execution time.
        """
        input_shape = self.input_spec.shape if input_shape is None else input_shape
        if input_shape not in self._plans:
            buffers: Dict[str, Tuple[int, ...]] = {"input": input_shape}
            planned = []
            for node in self.nodes:
                missing = [i for i in node.inputs if i not in buffers]
                if missing:
                    raise ModelError(
                        f"node {node.name!r} references unknown inputs {missing} "
                        "(graph must be topologically ordered)"
                    )
                op = op_entry(node.op)
                keys = tuple([f"{node.name}.{wname}" for wname in op.weights])
                out, *workspace = op.shapes(
                    [buffers[i] for i in node.inputs],
                    node.attrs,
                    {w: self.weights[k].shape for w, k in zip(op.weights, keys)},
                )
                buffers[node.name] = out
                scratch = tuple([f"{node.name}#{k}" for k in range(len(workspace))])
                buffers.update(zip(scratch, workspace))
                planned.append((node, op, keys, scratch))
            self._plans[input_shape] = Plan(tuple(planned), buffers, [])
        return self._plans[input_shape]

    def bind(
        self,
        storage: Mapping[str, np.ndarray],
        weights: Optional[Mapping[str, np.ndarray]] = None,
        input_shape: Optional[Tuple[int, ...]] = None,
        binders: Mapping[str, Callable] = {},
    ) -> Tuple[np.ndarray, List[Callable[[], None]], np.ndarray]:
        """Bind every node, once, to a zero-argument step over fixed storage.

        ``storage`` holds one float32 buffer per entry of
        ``plan(input_shape).buffers``; ``weights`` defaults to the
        model's own arrays; ``binders`` replaces the table's binder for
        the named ops.  Returns ``(input buffer, steps, output buffer)``:
        executing is copying into the first, calling the steps in order
        and reading the last.
        """
        weights = self.weights if weights is None else weights
        steps = [
            binders.get(node.op, op.bind)(
                [storage[i] for i in node.inputs],
                storage[node.name],
                [weights[k] for k in keys],
                node.attrs,
                [storage[k] for k in workspace],
            )
            for node, op, keys, workspace in self.plan(input_shape).nodes
        ]
        return storage["input"], steps, storage[self.output_node]

    def shape_of(self, node_name: str) -> Tuple[int, ...]:
        """Inferred output shape of ``node_name`` (or of ``"input"``)."""
        return self._shapes[node_name]

    @property
    def output_node(self) -> str:
        if not self.nodes:
            raise ModelError("model has no nodes")
        return self.nodes[-1].name

    @property
    def output_shape(self) -> Tuple[int, ...]:
        return self._shapes[self.output_node]

    def node_weights(self, node: GraphNode) -> Dict[str, np.ndarray]:
        """The weight arrays a node consumes, keyed by weight name."""
        return {
            wname: self.weights[f"{node.name}.{wname}"]
            for wname in op_entry(node.op).weights
        }

    @property
    def weight_bytes(self) -> int:
        """Total weight payload size (the bulk of the model artifact)."""
        return sum(w.nbytes for w in self.weights.values())

    # -- reference execution --------------------------------------------------------

    def run_reference(self, x: np.ndarray) -> np.ndarray:
        """Direct graph execution without any runtime (testing oracle)."""
        values: Dict[str, np.ndarray] = {"input": x}
        for node in self.nodes:
            values[node.name] = run_op(
                node.op,
                [values[i] for i in node.inputs],
                node.attrs,
                self.node_weights(node),
            )
        return values[self.output_node]

    # -- serialisation ----------------------------------------------------------------

    def serialize(self) -> bytes:
        """Pack the model into a self-contained binary artifact."""
        manifest = []
        blobs = []
        offset = 0
        for wname in sorted(self.weights):
            array = np.ascontiguousarray(self.weights[wname])
            raw = array.tobytes()
            manifest.append(
                {
                    "name": wname,
                    "dtype": str(array.dtype),
                    "shape": list(array.shape),
                    "offset": offset,
                    "nbytes": len(raw),
                }
            )
            blobs.append(raw)
            offset += len(raw)
        header = json.dumps(
            {
                "name": self.name,
                "input": {"shape": list(self.input_spec.shape), "dtype": self.input_spec.dtype},
                "nodes": [
                    {
                        "name": n.name,
                        "op": n.op,
                        "inputs": list(n.inputs),
                        "attrs": n.attrs,
                    }
                    for n in self.nodes
                ],
                "weights": manifest,
            }
        ).encode()
        return b"".join([_MAGIC, struct.pack(">I", len(header)), header, *blobs])

    @classmethod
    def deserialize(cls, raw: bytes) -> "Model":
        """Inverse of :meth:`serialize`."""
        if raw[: len(_MAGIC)] != _MAGIC:
            raise ModelError("not a serialised model (bad magic)")
        if len(raw) < 12:
            raise ModelError("truncated model artifact")
        (header_len,) = struct.unpack(">I", raw[8:12])
        try:
            header = json.loads(raw[12 : 12 + header_len])
        except (json.JSONDecodeError, UnicodeDecodeError, ValueError) as exc:
            raise ModelError(f"corrupt model header: {exc}") from exc
        body = raw[12 + header_len :]
        weights: Dict[str, np.ndarray] = {}
        for item in header["weights"]:
            chunk = body[item["offset"] : item["offset"] + item["nbytes"]]
            if len(chunk) != item["nbytes"]:
                raise ModelError(f"truncated weight payload for {item['name']!r}")
            weights[item["name"]] = np.frombuffer(chunk, dtype=item["dtype"]).reshape(
                item["shape"]
            )
        nodes = [
            GraphNode(
                name=n["name"], op=n["op"], inputs=tuple(n["inputs"]), attrs=n["attrs"]
            )
            for n in header["nodes"]
        ]
        spec = TensorSpec(tuple(header["input"]["shape"]), header["input"]["dtype"])
        return cls(header["name"], spec, nodes, weights)


class GraphBuilder:
    """Fluent builder that also initialises weights deterministically."""

    def __init__(self, name: str, input_spec: TensorSpec, seed: int = 7) -> None:
        self.name = name
        self.input_spec = input_spec
        self.nodes: List[GraphNode] = []
        self.weights: Dict[str, np.ndarray] = {}
        self._rng = np.random.default_rng(seed)
        self._shapes: Dict[str, Tuple[int, ...]] = {"input": input_spec.shape}
        self._counter = 0

    def _fresh_name(self, op: str) -> str:
        self._counter += 1
        return f"{op}_{self._counter}"

    def _weight(self, name: str, shape: Tuple[int, ...], scale: float = 0.1) -> None:
        self.weights[name] = (
            self._rng.standard_normal(shape).astype(np.float32) * scale
        )

    def _append(
        self, op: str, inputs: Tuple[str, ...], attrs: Optional[dict] = None,
        weight_shapes: Optional[Dict[str, Tuple[int, ...]]] = None,
    ) -> str:
        attrs = attrs or {}
        name = self._fresh_name(op)
        for wname, wshape in (weight_shapes or {}).items():
            if wname in ("bias", "shift"):
                self.weights[f"{name}.{wname}"] = np.zeros(wshape, dtype=np.float32)
            elif wname == "scale":
                self.weights[f"{name}.{wname}"] = np.ones(wshape, dtype=np.float32)
            else:
                self._weight(f"{name}.{wname}", wshape)
        node = GraphNode(name=name, op=op, inputs=inputs, attrs=attrs)
        self.nodes.append(node)
        wshapes = {
            w: self.weights[f"{name}.{w}"].shape for w in op_entry(op).weights
        }
        self._shapes[name] = infer_shape(
            op, [self._shapes[i] for i in inputs], attrs, wshapes
        )
        return name

    def shape_of(self, name: str) -> Tuple[int, ...]:
        """Inferred output shape of a built node."""
        return self._shapes[name]

    # -- layer helpers -----------------------------------------------------------

    def conv(self, src: str, cout: int, k: int = 3, stride: int = 1, pad: int = 1) -> str:
        """Append a 2-D convolution producing ``cout`` channels."""
        cin = self._shapes[src][3]
        return self._append(
            "conv2d", (src,), {"stride": stride, "pad": pad},
            {"weight": (k, k, cin, cout), "bias": (cout,)},
        )

    def depthwise(self, src: str, k: int = 3, stride: int = 1, pad: int = 1) -> str:
        """Append a depthwise convolution."""
        c = self._shapes[src][3]
        return self._append(
            "depthwise_conv2d", (src,), {"stride": stride, "pad": pad},
            {"weight": (k, k, c), "bias": (c,)},
        )

    def dense(self, src: str, cout: int) -> str:
        """Append a fully-connected layer (flattens its input)."""
        shape = self._shapes[src]
        cin = int(np.prod(shape[1:]))
        return self._append("dense", (src,), {}, {"weight": (cin, cout), "bias": (cout,)})

    def batch_norm(self, src: str) -> str:
        """Append an inference-time batch norm (scale/shift)."""
        c = self._shapes[src][-1]
        return self._append("batch_norm", (src,), {}, {"scale": (c,), "shift": (c,)})

    def relu(self, src: str) -> str:
        """Append a ReLU activation."""
        return self._append("relu", (src,))

    def relu6(self, src: str) -> str:
        """Append a ReLU6 activation."""
        return self._append("relu6", (src,))

    def add(self, a: str, b: str) -> str:
        """Append an elementwise addition of two nodes."""
        return self._append("add", (a, b))

    def concat(self, a: str, b: str) -> str:
        """Append a channel concatenation of two nodes."""
        return self._append("concat", (a, b))

    def max_pool(self, src: str, size: int = 2, stride: int = 2) -> str:
        """Append a max-pooling layer."""
        return self._append("max_pool", (src,), {"size": size, "stride": stride})

    def avg_pool(self, src: str, size: int = 2, stride: int = 2) -> str:
        """Append an average-pooling layer."""
        return self._append("avg_pool", (src,), {"size": size, "stride": stride})

    def global_avg_pool(self, src: str) -> str:
        """Append a global average pool."""
        return self._append("global_avg_pool", (src,))

    def softmax(self, src: str) -> str:
        """Append a softmax over the last axis."""
        return self._append("softmax", (src,))

    def embedding(self, src: str, vocab: int, dim: int) -> str:
        """Append a token embedding (plus sinusoidal positions)."""
        return self._append("embedding", (src,), {}, {"weight": (vocab, dim)})

    def layer_norm(self, src: str) -> str:
        """Append a layer norm over the last axis (scale/shift)."""
        d = self._shapes[src][-1]
        return self._append("layer_norm", (src,), {}, {"scale": (d,), "shift": (d,)})

    def gelu(self, src: str) -> str:
        """Append a GELU activation."""
        return self._append("gelu", (src,))

    def linear(self, src: str, cout: int) -> str:
        """Append a position-wise affine map over the last axis."""
        cin = self._shapes[src][-1]
        return self._append(
            "linear", (src,), {}, {"weight": (cin, cout), "bias": (cout,)}
        )

    def attention(self, src: str, heads: int = 2) -> str:
        """Append causal multi-head self-attention."""
        d = self._shapes[src][-1]
        return self._append(
            "attention", (src,), {"heads": heads},
            {"wq": (d, d), "wk": (d, d), "wv": (d, d), "wo": (d, d)},
        )

    def take_last(self, src: str) -> str:
        """Append a slice of the last time position."""
        return self._append("take_last", (src,))

    def build(self) -> Model:
        """Finalise the graph into an immutable Model."""
        return Model(self.name, self.input_spec, self.nodes, self.weights)
