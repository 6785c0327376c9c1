"""Rebuild- and re-stripe-time model (Section 5.1).

The MTTDL expressions are driven by the node rebuild rate ``mu_N`` and the
drive rebuild (or array re-stripe) rate ``mu_d``.  The paper derives these
from first principles — the amount of data each surviving node moves and
the slower of the two transports involved (disk arms vs. network links) —
rather than assuming them.  This module reproduces that accounting.

Data accounting for a *node* rebuild with node set size ``N``, redundancy
set size ``R`` and cross-node fault tolerance ``t`` (all quantities in
units of one node's worth of user data):

* each surviving node rebuilds ``1/(N-1)``,
* each surviving node receives ``(R-t)/(N-1)`` from its peers,
* each surviving node also sources ``(R-t)/(N-1)`` to its peers,
* so per-node network traffic (in + out) is ``2(R-t)/(N-1)`` and
* per-node disk traffic (reads it sources + writes it lands) is
  ``(R-t+1)/(N-1)``.

The rebuild finishes when the slowest of the two transports finishes; the
rate of each transport is derated by the rebuild-bandwidth fraction (the
rest of the bandwidth keeps serving foreground I/O).

A *drive* rebuild (configurations without internal RAID) follows the same
pattern at drive granularity: one drive's worth of data is reconstructed
onto the spare space of the whole node set.

An internal-RAID *re-stripe* is node-local: the array is rewritten onto
the surviving ``d-1`` drives, so it reads and writes the node's data once
each through the node's own disks using the (larger) re-stripe command
size.

The recovery operations and their rates read their inputs as
attributes of ``params``, so a
:class:`~repro.models.parameters.ParameterColumns` in place of a
:class:`~repro.models.parameters.Parameters` yields whole columns of
rates, bitwise equal to the per-point values.
"""

from __future__ import annotations

from dataclasses import dataclass

from .parameters import Parameters, elementwise_max, elementwise_min

__all__ = ["RebuildModel", "TransferBreakdown"]

SECONDS_PER_HOUR = 3600.0


@dataclass(frozen=True)
class TransferBreakdown:
    """Time components of one recovery operation.

    Attributes:
        disk_seconds: time for the disk-side traffic at the disk transport
            rate.
        network_seconds: time for the network-side traffic at the link
            transport rate.
        total_seconds: the governing (maximum) time.
    """

    disk_seconds: float
    network_seconds: float

    @property
    def total_seconds(self) -> float:
        return elementwise_max(self.disk_seconds, self.network_seconds)

    @property
    def total_hours(self) -> float:
        return self.total_seconds / SECONDS_PER_HOUR

    @property
    def bottleneck(self) -> str:
        """``"disk"`` or ``"network"``, whichever governs."""
        return "disk" if self.disk_seconds >= self.network_seconds else "network"


class RebuildModel:
    """Computes rebuild/re-stripe rates from basic transport parameters.

    Args:
        params: the system parameters.

    The model exposes per-operation :class:`TransferBreakdown` objects so
    callers (and the link-speed sensitivity analysis) can see which
    transport governs.
    """

    def __init__(self, params: Parameters) -> None:
        self._p = params

    @property
    def params(self) -> Parameters:
        return self._p

    # ------------------------------------------------------------------ #
    # transport bandwidths
    # ------------------------------------------------------------------ #

    def drive_rebuild_bandwidth(self) -> float:
        """Bytes/second one drive contributes to a rebuild.

        Small-command rebuild I/O is IOPS-bound: ``IOPS x command size``,
        capped by the drive's sustained streaming rate, then derated by the
        rebuild bandwidth fraction.  This is exactly the mechanism that
        makes the rebuild block size the paper's most powerful knob
        (Figure 16): at 128 KB commands a 150-IOPS drive moves ~19.7 MB/s,
        less than half its 40 MB/s streaming rate.
        """
        p = self._p
        raw = elementwise_min(
            p.drive_max_iops * p.rebuild_command_bytes, p.drive_sustained_bps
        )
        return raw * p.rebuild_bandwidth_fraction

    def drive_restripe_bandwidth(self) -> float:
        """Bytes/second one drive contributes to an internal re-stripe
        (uses the re-stripe command size)."""
        p = self._p
        raw = elementwise_min(
            p.drive_max_iops * p.restripe_command_bytes, p.drive_sustained_bps
        )
        return raw * p.rebuild_bandwidth_fraction

    def node_disk_bandwidth(self, command_bytes: float) -> float:
        """Aggregate derated disk bandwidth of one node at a command size."""
        p = self._p
        per_drive = min(p.drive_max_iops * command_bytes, p.drive_sustained_bps)
        return p.drives_per_node * per_drive * p.rebuild_bandwidth_fraction

    def node_network_bandwidth(self) -> float:
        """Derated sustained network bandwidth of one node, per direction.

        The 2x in the per-node network traffic ``2(R-t)/(N-1)`` counts
        inbound and outbound bytes; links are full duplex, so each
        direction is served at the sustained link rate independently and
        the governing time is traffic-per-direction over this bandwidth.
        """
        p = self._p
        return p.link_sustained_bytes_per_sec * p.rebuild_bandwidth_fraction

    # ------------------------------------------------------------------ #
    # recovery operations
    # ------------------------------------------------------------------ #

    def node_rebuild(self, fault_tolerance: int) -> TransferBreakdown:
        """Distributed rebuild of one failed node's data.

        Args:
            fault_tolerance: ``t`` of the cross-node erasure code; the
                surviving ``R - t`` elements of each stripe are read.
        """
        self._check_ft(fault_tolerance)
        p = self._p
        share = self._surviving_share()
        read_elements = elementwise_max(p.redundancy_set_size - fault_tolerance, 1)
        disk_bytes = (read_elements + 1) * share * p.node_data_bytes
        network_bytes_per_direction = read_elements * share * p.node_data_bytes
        disk_bw = p.drives_per_node * self.drive_rebuild_bandwidth()
        return TransferBreakdown(
            disk_seconds=disk_bytes / disk_bw,
            network_seconds=network_bytes_per_direction / self.node_network_bandwidth(),
        )

    def drive_rebuild(self, fault_tolerance: int) -> TransferBreakdown:
        """Distributed rebuild of one failed drive's data (no internal RAID).

        Same flow accounting as :meth:`node_rebuild` with one drive's worth
        of data spread over the same set of surviving nodes.
        """
        self._check_ft(fault_tolerance)
        p = self._p
        share = self._surviving_share()
        read_elements = elementwise_max(p.redundancy_set_size - fault_tolerance, 1)
        disk_bytes = (read_elements + 1) * share * p.drive_data_bytes
        network_bytes_per_direction = read_elements * share * p.drive_data_bytes
        disk_bw = p.drives_per_node * self.drive_rebuild_bandwidth()
        return TransferBreakdown(
            disk_seconds=disk_bytes / disk_bw,
            network_seconds=network_bytes_per_direction / self.node_network_bandwidth(),
        )

    def array_restripe(self) -> TransferBreakdown:
        """Node-internal re-stripe after an internal-RAID drive failure.

        Fail-in-place: the array's data is read once and rewritten across
        the surviving drives (no network traffic), using the re-stripe
        command size.
        """
        p = self._p
        data = p.node_data_bytes
        disk_bytes = 2.0 * data  # read everything once, write everything once
        disk_bw = p.drives_per_node * self.drive_restripe_bandwidth()
        return TransferBreakdown(disk_seconds=disk_bytes / disk_bw, network_seconds=0.0)

    # ------------------------------------------------------------------ #
    # rates (what the Markov models consume)
    # ------------------------------------------------------------------ #

    def node_rebuild_rate(self, fault_tolerance: int) -> float:
        """``mu_N`` in 1/hours."""
        return 1.0 / self.node_rebuild(fault_tolerance).total_hours

    def drive_rebuild_rate(self, fault_tolerance: int) -> float:
        """``mu_d`` in 1/hours for configurations without internal RAID."""
        return 1.0 / self.drive_rebuild(fault_tolerance).total_hours

    def restripe_rate(self) -> float:
        """``mu_d`` in 1/hours for configurations with internal RAID
        (the re-stripe rate, per the paper's Section 4.2 note)."""
        return 1.0 / self.array_restripe().total_hours

    def network_bound_below_gbps(self, fault_tolerance: int) -> float:
        """Link speed (Gb/s) at which the node rebuild's disk and network
        times are equal; below this the rebuild is network-bound.

        Used by the Figure 17 analysis ("constrained by the link speed up
        to around 3 Gb/s").
        """
        p = self._p
        breakdown = self.node_rebuild(fault_tolerance)
        if breakdown.network_seconds == 0:
            return 0.0
        # network_seconds scales as 1/link_speed; find speed equating them.
        current_gbps = p.link_speed_bps / 1e9
        return current_gbps * breakdown.network_seconds / breakdown.disk_seconds

    # ------------------------------------------------------------------ #

    def _surviving_share(self) -> float:
        return 1.0 / (self._p.node_set_size - 1)

    @staticmethod
    def _check_ft(fault_tolerance: int) -> None:
        if fault_tolerance < 1:
            raise ValueError("fault_tolerance must be >= 1")
