// XenVisor's per-domain state (the VM_i State of a Xen guest).

#ifndef HYPERTP_SRC_XEN_XEN_DOMAIN_H_
#define HYPERTP_SRC_XEN_XEN_DOMAIN_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/hv/host_core.h"
#include "src/xen/xen_formats.h"

namespace hypertp {

// Xen PV event channel. HVM guests use these only for PV drivers; they are
// not translated across a transplant — the paper's device unplug/replug
// strategy means the target side re-negotiates its equivalent notification
// paths (virtio ioeventfds on KVM).
struct XenEventChannel {
  enum class Type : uint8_t { kInterdomain, kVirq, kIpi };
  uint32_t port = 0;
  Type type = Type::kInterdomain;
  uint32_t remote_domid = 0;  // dom0 for PV driver channels.
  bool pending = false;
};

// Grant table entry: the guest grants dom0's backend access to one of its
// own frames (virtio/PV ring pages). Grants reference Guest State GFNs —
// which survive a transplant in place — but the table itself is rebuilt by
// driver re-negotiation on the target side, like the event channels.
struct XenGrantEntry {
  uint32_t ref = 0;
  Gfn gfn = 0;
  uint32_t flags = 0;  // GTF_permit_access-style.
  uint32_t granted_to = 0;  // Backend domid (dom0).
};

// The common header (src/hv/host_core.h) carries the domid as `id`, the P2M
// as `memory` and the QEMU-upstream device models as `devices`.
struct XenDomain : HostedVm {
  // VM_i State: platform context in Xen's native record formats.
  XenHvmContext hvm;
  // PV infrastructure (rebuilt, never translated).
  std::vector<XenEventChannel> event_channels;
  std::vector<XenGrantEntry> grant_table;
  std::map<std::string, std::string> xenstore;

  uint32_t vcpu_count() const { return static_cast<uint32_t>(hvm.vcpus.size()); }
};

}  // namespace hypertp

#endif  // HYPERTP_SRC_XEN_XEN_DOMAIN_H_
