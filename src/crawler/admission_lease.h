#ifndef WEBEVO_CRAWLER_ADMISSION_LEASE_H_
#define WEBEVO_CRAWLER_ADMISSION_LEASE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace webevo::crawler {

/// The incremental crawler's capacity-lease admission protocol.
///
/// A batch has one frozen admission budget, the remaining collection
/// capacity. The serial coordinator grants every shard a lease over
/// that budget; during the parallel apply pass each shard
/// performs its own greedy-fill admissions against the lease,
/// recording each admission's global (slot, position) coordinates; the
/// serial settle then reconciles the optimistic leases: the first
/// `budget` admissions in global stream order stand, the overdraft is
/// revoked.
///
/// Because every shard's lease carries the full remaining budget, a
/// shard's local greedy admits a *superset* of what the serial
/// frozen-budget greedy would admit from that shard's stream (an
/// admission's position within its shard never exceeds its global
/// position), so settlement only ever revokes — it never has to
/// retro-admit — and the settled outcome equals the serial reference
/// exactly, at every shard count.

/// One admission performed by a shard against its lease, identified by
/// the global stream coordinates that define the serial greedy order:
/// the batch slot that discovered the link and the link's position
/// within that slot's list.
struct AdmissionRef {
  uint32_t slot = 0;
  uint32_t pos = 0;
};

/// An admission revoked at settlement, named by the shard that
/// performed it and its index into that shard's admission list (so the
/// caller can map it back to its own bookkeeping).
struct RevokedAdmission {
  uint32_t shard = 0;
  uint32_t index = 0;
};

/// Settles the batch's leases: `admitted[s]` is shard s's admission
/// list in ascending (slot, pos) order. Returns the admissions past
/// the first `budget` in global (slot, pos) order — ordered the same
/// way — which the caller must undo. Empty whenever the combined
/// admissions fit the budget (the common, uncontended case: O(shards)
/// to discover).
std::vector<RevokedAdmission> SettleAdmissionLease(
    const std::vector<std::vector<AdmissionRef>>& admitted,
    std::size_t budget);

}  // namespace webevo::crawler

#endif  // WEBEVO_CRAWLER_ADMISSION_LEASE_H_
