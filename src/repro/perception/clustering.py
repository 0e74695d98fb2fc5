"""Euclidean clustering: non-ground points -> object bounding boxes.

A grid-hashed single-linkage clustering (the classic euclidean cluster
extraction used by Autoware's object detector): points are bucketed into
cells of edge ``eps``; two points are linked when their cells are equal
or adjacent (the 27-cell neighbourhood), and a cluster is a connected
component of that relation.  Clusters with too few points are discarded
as noise.

Points sharing a cell are trivially connected, so the components are
computed over *occupied cells*, not points: each cell is packed into one
int64 key with z at stride 1, so the three dz of one (dx, dy) neighbour
column are three consecutive keys.  One argsort of the keys and a
cumulative sum of where they change give the sorted unique keys and
each point's cell.  The unique keys are probed with one ``searchsorted``
per column -- 4 x n probes, plus the two slots that follow each, for the
13 half-space neighbour offsets -- the resulting cell edges are merged
by vectorised min-label hooking with pointer jumping, and the points are
labelled through their cells.  One stable argsort groups the points by
component; the boxes are two ``reduceat`` over all clusters at once.

Every array pass is one call into numpy's C layer -- a ufunc (with
``out=`` where a buffer exists), a ufunc's ``reduce`` / ``reduceat`` or
an ``ndarray`` method -- never a Python-level wrapper such as
``np.unique``, ``np.flatnonzero`` or ``ndarray.min``: on the ~55 points
of a sparse frame the wrappers cost more than the arithmetic.  The whole
perception stack enters numpy's Python layer 9 times per monitored
sparse frame, all of them ``np.concatenate``'s dispatcher or the sweeps'
RNG seeding (70.6 with the wrappers), under a ceiling that
``tests/test_hot_path_budget.py`` pins.  The kernels this replaced and
the per-point BFS before them are the differential oracles in
``tests/_reference/``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import List, Optional, Tuple

import numpy as np

from repro.dds.topic import Topic
from repro.perception.pointcloud import PointCloud
from repro.ros.node import Node
from repro.sim.threads import Compute
from repro.sim.workload import AffineModel, ExecutionTimeModel


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box around one detected object."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    z_min: float
    z_max: float
    point_count: int


#: Cell coordinates are cast to int64 and then shifted and packed; past
#: this magnitude the cast (or the shift) is undefined.
_MAX_CELL = 2**62
_INT64_MAX = 2**63 - 1

#: Three keys larger than every packed key (the packed grid fits int64):
#: they follow the sorted keys so that a probe of three consecutive
#: slots may start at their very end.
_NO_CELLS = np.full(3, _INT64_MAX)

#: The probed slot and the two that follow it.
_SLOT_STEPS = np.arange(3)[:, None]


def _occupied_cells(
    xyz: np.ndarray, eps: float
) -> Tuple[np.ndarray, np.ndarray, Tuple[int, int]]:
    """Pack each point's cell into one int64 key.

    Returns the sorted unique keys, each point's index into them, and
    the key strides of a step in x and in y (a step in z is 1).  The
    grid is padded by one cell on every side, so adding a neighbour
    offset to an occupied key never carries into another axis.
    """
    # One row per axis, contiguous: the bounds and the packing run on it.
    cells = np.divide(xyz.T, eps, order="C")
    np.floor(cells, out=cells)
    lo = np.minimum.reduce(cells, axis=1).tolist()
    hi = np.maximum.reduce(cells, axis=1).tolist()
    # NaN propagates into both bounds and an infinity is one of them.
    if not all(map(math.isfinite, lo + hi)):
        raise ValueError(
            "euclidean_clusters: non-finite cell coordinates "
            "(NaN/inf points, or eps too small for them)"
        )
    lo = [int(v) - 1 for v in lo]
    hi = [int(v) + 1 for v in hi]
    span_x, span_y, span_z = (h - l + 1 for h, l in zip(hi, lo))
    if (
        min(lo) < -_MAX_CELL
        or max(hi) > _MAX_CELL
        or span_x * span_y * span_z > _INT64_MAX
    ):
        raise ValueError(
            f"euclidean_clusters: a {span_x} x {span_y} x {span_z} cell grid "
            f"does not pack into an int64 key (eps={eps!r} too small for the "
            f"extent of the cloud)"
        )
    stride_x, stride_y = span_y * span_z, span_z
    offsets = cells.astype(np.int64)
    offsets -= np.array(lo)[:, None]
    keys = np.matmul((stride_x, stride_y, 1), offsets)
    # The unique keys, from one argsort: a point's cell is the number of
    # key changes up to its place in sorted order, and the unique keys
    # are the first sorted key plus every changed one.
    order = keys.argsort()
    sorted_keys = keys[order]
    new_key = np.empty(len(keys), dtype=bool)
    new_key[0] = False
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new_key[1:])
    cell_of_point = np.empty(len(keys), dtype=np.intp)
    cell_of_point[order] = new_key.cumsum()
    new_key[0] = True
    return sorted_keys[new_key], cell_of_point, (stride_x, stride_y)


def _adjacent_cells(
    cell_keys: np.ndarray, strides: Tuple[int, int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Index pairs (into *cell_keys*) of occupied cells that touch.

    Every adjacent pair is found once, from its lexicographically
    smaller side: the half space (dx, dy, dz) > (0, 0, 0).  A step in z
    is a key step of 1, so the three dz of one (dx, dy) column are three
    consecutive keys and sit in consecutive slots of the sorted unique
    *cell_keys*: one ``searchsorted`` per column for its dz = -1 key,
    then whichever of that slot and the next two still hold a key of the
    column.  (0, 0, +1) is the cell's own successor slot.
    """
    stride_x, stride_y = strides
    n_cells = len(cell_keys)
    # The dz = -1 key of the columns (0, +1), (+1, -1), (+1, 0), (+1, +1).
    columns = np.array([
        [stride_y - 1], [stride_x - stride_y - 1],
        [stride_x - 1], [stride_x + stride_y - 1],
    ])
    bottom = np.add(cell_keys, columns).ravel()
    slots = cell_keys.searchsorted(bottom) + _SLOT_STEPS
    padded = np.concatenate((cell_keys, _NO_CELLS))
    bottom += 2  # now the dz = +1 key of each column
    hits = (padded[slots] <= bottom).ravel().nonzero()[0]
    above = (cell_keys[1:] == cell_keys[:-1] + 1).nonzero()[0]
    return (
        np.concatenate((above, hits % n_cells)),
        np.concatenate((above + 1, slots.ravel()[hits])),
    )


def _component_labels(n_cells: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Label every cell with the smallest cell index of its component.

    Min-label hooking: ``labels`` is a forest whose pointers only ever
    go to smaller indices.  Each round hooks, for every edge still
    joining two trees, the larger root under the smaller one, then
    flattens the forest by pointer jumping.  A round with work left
    removes at least one root, so the loop ends; the root that survives
    in a component is its smallest index, whichever of several competing
    hooks numpy's fancy assignment lets win.
    """
    labels = np.arange(n_cells)
    while True:
        root_a, root_b = labels[a], labels[b]
        open_edges = (root_a != root_b).nonzero()[0]
        if len(open_edges) == 0:
            return labels
        a, b = a[open_edges], b[open_edges]
        root_a, root_b = root_a[open_edges], root_b[open_edges]
        labels[np.maximum(root_a, root_b)] = np.minimum(root_a, root_b)
        while True:
            jumped = labels[labels]
            # Equal bytes of two int64 arrays of one length are equal
            # elements, at the cost of a copy instead of a reduction.
            if jumped.tobytes() == labels.tobytes():
                break
            labels = jumped


def euclidean_clusters(
    xyz: np.ndarray, eps: float = 0.8, min_points: int = 8
) -> List[np.ndarray]:
    """Cluster points; returns index arrays, one per cluster.

    Two points belong to the same cluster if a chain of points with
    pairwise cell-adjacency (cell edge = eps) connects them -- the usual
    grid approximation of euclidean cluster extraction.  Clusters come
    in ascending order of their smallest member index, and the members
    of each in ascending index order.

    Raises ``ValueError`` for an *eps* that is not a positive finite
    length, for NaN/inf coordinates and for clouds whose extent in
    cells does not pack into an int64 key.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError(
            f"euclidean_clusters: eps must be a positive finite cell edge, "
            f"got {eps!r}"
        )
    if len(xyz) == 0:
        return []
    cell_keys, cell_of_point, strides = _occupied_cells(xyz, eps)
    a, b = _adjacent_cells(cell_keys, strides)
    label_of_point = _component_labels(len(cell_keys), a, b)[cell_of_point]
    # One stable sort groups the points by component and keeps them in
    # ascending index order inside each group, so a group's first entry
    # is its smallest member.  A group ends where the next one starts;
    # the last one at the end.
    order = label_of_point.argsort(kind="stable")
    sorted_labels = label_of_point[order]
    boundary = np.empty(len(order) + 1, dtype=bool)
    boundary[0] = boundary[-1] = True
    np.not_equal(sorted_labels[1:], sorted_labels[:-1], out=boundary[1:-1])
    bounds = boundary.nonzero()[0]
    starts, ends = bounds[:-1], bounds[1:]
    kept = (ends - starts >= min_points).nonzero()[0]
    kept = kept[order[starts[kept]].argsort()]
    return [
        order[start:end]
        for start, end in zip(starts[kept].tolist(), ends[kept].tolist())
    ]


def boxes_from_clusters(
    xyz: np.ndarray, clusters: List[np.ndarray]
) -> List[BoundingBox]:
    """Axis-aligned bounding boxes of the clustered points.

    The members of all clusters are gathered once, and each bound is
    one ``reduceat`` over the segments they form.
    """
    if not clusters:
        return []
    counts = list(map(len, clusters))
    if 0 in counts:
        raise ValueError("boxes_from_clusters: an empty cluster has no box")
    points = xyz[np.concatenate(clusters)]
    starts = list(accumulate(counts[:-1], initial=0))
    lows = np.minimum.reduceat(points, starts, dtype=np.float64).tolist()
    highs = np.maximum.reduceat(points, starts, dtype=np.float64).tolist()
    return [
        BoundingBox(x_min=lo[0], x_max=hi[0], y_min=lo[1], y_max=hi[1],
                    z_min=lo[2], z_max=hi[2], point_count=count)
        for lo, hi, count in zip(lows, highs, counts)
    ]


@dataclass
class DetectedObjects:
    """Output message of the object-detection service."""

    frame_index: int
    stamp: int
    boxes: List[BoundingBox]

    @property
    def nbytes(self) -> int:
        """Approximate serialized size."""
        return 64 + 56 * len(self.boxes)


class EuclideanClusterDetector:
    """The object-detection service on ECU2.

    Subscribes to non-ground points, publishes detected objects.
    """

    def __init__(
        self,
        node: Node,
        topic_in: Topic,
        topic_out: Topic,
        cluster_model: Optional[ExecutionTimeModel] = None,
        eps: float = 0.8,
        min_points: int = 8,
    ):
        self.node = node
        self.cluster_model = cluster_model or AffineModel(
            base_ns=1_500_000, per_item_ns=900, noise=0.25
        )
        self.eps = eps
        self.min_points = min_points
        self.publisher = node.create_publisher(topic_out)
        self.detected_count = 0
        self.subscription = node.create_subscription(topic_in, self._on_cloud)

    def _on_cloud(self, sample):
        cloud: PointCloud = sample.data
        work = self.cluster_model.sample(
            self.node.ecu.sim.rng("detector"), size=len(cloud)
        )
        yield Compute(work)
        clusters = euclidean_clusters(cloud.xyz, eps=self.eps, min_points=self.min_points)
        boxes = boxes_from_clusters(cloud.xyz, clusters)
        self.publisher.publish(
            DetectedObjects(
                frame_index=cloud.frame_index, stamp=cloud.stamp, boxes=boxes
            )
        )
        self.detected_count += 1
