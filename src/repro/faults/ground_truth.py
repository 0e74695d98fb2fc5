"""Omniscient ground-truth recording for oracle verification.

The monitors deliberately *suppress* what they judge invalid -- skip
gates eat late end events, remote monitors discard late arrivals -- so a
naive observer sees exactly what the monitor saw and can never judge the
monitor itself.  The recorder therefore installs itself at **index 0**
of every relevant publish/receive filter list: it observes every event
attempt (including ones a later filter suppresses), always returns True,
and stamps *global simulation time* (which no in-system component may
read -- clocks drift; this is the test oracle's privilege).

Two inclusion rules keep the bookkeeping honest:

- **end tables** exclude ``recovered`` samples: a handler's substitute
  publication is not the real end event of the activation it stands in
  for;
- **start tables** and **sink completion tables** include them: a
  recovered sample genuinely starts the downstream segment and carries
  real (if degraded) data to the sink.

For the source segments (s0_*) a third table records *accepted* ends:
a filter appended at the END of the receive-filter chain, which only
runs for samples the monitor let through.  The difference between
physical and accepted ends is exactly the monitor's discard policy --
a late cloud arrives physically but never enters the pipeline, so the
chain ran on substitute data.  Completeness uses accepted ends;
soundness justification uses physical ones.
"""

from __future__ import annotations

from typing import Dict, Optional


class GroundTruthRecorder:
    """Global-time event log of one stack run, keyed by activation."""

    def __init__(self, stack):
        self.stack = stack
        self.period = stack.config.period
        #: segment -> activation -> global time of first real start event.
        self.starts: Dict[str, Dict[int, int]] = {}
        #: segment -> activation -> global time of first real end event.
        self.ends: Dict[str, Dict[int, int]] = {}
        #: sink topic -> activation -> global time of first arrival.
        self.completions: Dict[str, Dict[int, int]] = {}
        #: s0 segment -> activation -> global time the sample passed all
        #: receive filters (i.e. actually entered the application).
        self.accepted_ends: Dict[str, Dict[int, int]] = {}
        self._install(stack)

    # ------------------------------------------------------------------
    def _recorder(self, start_tables, end_tables, completion_tables=()):
        sim = self.stack.sim
        # Starts and completions count substitutes, ends do not (see the
        # module docstring): two table groups, one pass each.
        every_sample = (*start_tables, *completion_tables)
        real_only = tuple(end_tables)

        def record(sample) -> bool:
            n = getattr(sample.data, "frame_index", None)
            if n is not None:
                now = sim.now
                for table in every_sample:
                    table.setdefault(n, now)
                if not sample.recovered:
                    for table in real_only:
                        table.setdefault(n, now)
            return True

        return record

    def _install(self, stack) -> None:
        for name in ("s0_front", "s0_rear", "s1_front", "s1_rear", "s2",
                     "s3_objects", "s3_ground"):
            self.starts[name] = {}
            self.ends[name] = {}
        self.completions = {"objects": {}, "ground_points": {}}

        def at_writer(writer, start_tables, end_tables):
            writer.publish_filters.insert(
                0, self._recorder(start_tables, end_tables)
            )

        def at_reader(reader, start_tables, end_tables, completion_tables=()):
            reader.receive_filters.insert(
                0, self._recorder(start_tables, end_tables, completion_tables)
            )

        self.accepted_ends = {"s0_front": {}, "s0_rear": {}}

        def accepted(reader, table):
            # Appended (not inserted) so it only sees samples every
            # earlier filter -- including the monitor's discard -- let
            # through.  Substitutes issued by the monitor are excluded.
            reader.receive_filters.append(self._recorder([], [table]))

        s, e, c = self.starts, self.ends, self.completions
        at_writer(stack.lidar_front.publisher.writer, [s["s0_front"]], [])
        at_writer(stack.lidar_rear.publisher.writer, [s["s0_rear"]], [])
        at_reader(stack.fusion.sub_front.reader,
                  [s["s1_front"]], [e["s0_front"]])
        at_reader(stack.fusion.sub_rear.reader,
                  [s["s1_rear"]], [e["s0_rear"]])
        accepted(stack.fusion.sub_front.reader, self.accepted_ends["s0_front"])
        accepted(stack.fusion.sub_rear.reader, self.accepted_ends["s0_rear"])
        at_writer(stack.fusion.publisher.writer,
                  [s["s2"]], [e["s1_front"], e["s1_rear"]])
        at_reader(stack.classifier.subscription.reader,
                  [s["s3_objects"], s["s3_ground"]], [e["s2"]])
        at_reader(stack.sink.subscriptions[0].reader,
                  [], [e["s3_objects"]], [c["objects"]])
        at_reader(stack.sink.subscriptions[1].reader,
                  [], [e["s3_ground"]], [c["ground_points"]])

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def segment_start(self, segment: str, activation: int) -> Optional[int]:
        """Global time of the segment's real start event, if any."""
        return self.starts[segment].get(activation)

    def segment_end(self, segment: str, activation: int) -> Optional[int]:
        """Global time of the segment's real end event, if any."""
        return self.ends[segment].get(activation)

    def accepted_end(self, segment: str, activation: int) -> Optional[int]:
        """Global time the sample entered the application (s0 only)."""
        return self.accepted_ends[segment].get(activation)

    def e2e_completion(self, chain_name: str, activation: int) -> Optional[int]:
        """Global time the chain's sink first saw data of *activation*."""
        topic = "objects" if chain_name.endswith("objects") else "ground_points"
        return self.completions[topic].get(activation)

    def e2e_latency(self, chain_name: str, activation: int) -> Optional[int]:
        """Completion time relative to the nominal activation instant."""
        completed = self.e2e_completion(chain_name, activation)
        if completed is None:
            return None
        return completed - activation * self.period
