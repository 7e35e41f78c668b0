// End-to-end datacenter scenarios stitching every subsystem together:
// vulnerability disclosure -> policy -> Nova-orchestrated fleet transplant ->
// telemetry, plus cold migration and the return trip after the patch ships.

#include <gtest/gtest.h>

#include <memory>

#include "src/core/factory.h"
#include "src/core/report.h"
#include "src/guest/guest_image.h"
#include "src/orch/compute_driver.h"
#include "src/orch/nova.h"
#include "src/vulndb/vulndb.h"

namespace hypertp {
namespace {

const CveRecord* FindCve(std::string_view id) {
  for (const CveRecord& r : VulnDatabase()) {
    if (r.id == id) {
      return &r;
    }
  }
  return nullptr;
}

class DatacenterTest : public ::testing::Test {
 protected:
  DatacenterTest()
      : machines_{Machine(MachineProfile::C1(), 0), Machine(MachineProfile::C1(), 1),
                  Machine(MachineProfile::C1(), 2)} {
    for (Machine& machine : machines_) {
      nova_.RegisterHost(
          std::make_unique<LibvirtDriver>(MakeHypervisor(HypervisorKind::kXen, machine)));
    }
  }

  // Boots an instance and installs a verifiable guest image in it.
  uint64_t BootWithImage(const std::string& name, bool capable) {
    auto uid = nova_.Boot(VmConfig::Small(name), capable);
    EXPECT_TRUE(uid.ok());
    const NovaInstance* inst = nova_.GetInstance(*uid).value();
    auto* driver = dynamic_cast<LibvirtDriver*>(&nova_.driver(inst->host));
    auto image = InstallGuestImage(driver->hypervisor(), inst->vm_id, *uid);
    EXPECT_TRUE(image.ok());
    images_[*uid] = *image;
    return *uid;
  }

  // Verifies an instance's guest image wherever it currently lives.
  void VerifyInstance(uint64_t uid) {
    const NovaInstance* inst = nova_.GetInstance(uid).value();
    auto* driver = dynamic_cast<LibvirtDriver*>(&nova_.driver(inst->host));
    auto verified = VerifyGuestImage(driver->hypervisor(), inst->vm_id, images_.at(uid));
    EXPECT_TRUE(verified.ok()) << "uid " << uid << ": " << verified.error().ToString();
  }

  std::vector<Machine> machines_;
  NovaManager nova_;
  std::map<uint64_t, GuestImageInfo> images_;
};

TEST_F(DatacenterTest, VulnerabilityDayEndToEnd) {
  // Tenants: six capable, three legacy.
  std::vector<uint64_t> uids;
  for (int i = 0; i < 9; ++i) {
    uids.push_back(BootWithImage("tenant-" + std::to_string(i), i % 3 != 0));
  }

  // Disclosure: CVE-2016-6258 (critical, Xen-only).
  const CveRecord* cve = FindCve("CVE-2016-6258");
  ASSERT_NE(cve, nullptr);
  auto decision = DecideTransplant(HypervisorKind::kXen, {{cve}},
                                   {HypervisorKind::kXen, HypervisorKind::kKvm});
  ASSERT_TRUE(decision.transplant_recommended);
  ASSERT_EQ(*decision.target, HypervisorKind::kKvm);

  // Fleet upgrade, host by host.
  int total_transplanted = 0;
  int total_migrated = 0;
  for (size_t host = 0; host < nova_.host_count(); ++host) {
    auto outcome = nova_.HostLiveUpgrade(host, *decision.target, NetworkLink{10.0});
    ASSERT_TRUE(outcome.ok()) << "host " << host << ": " << outcome.error().ToString();
    total_transplanted += outcome->transplanted_in_place;
    total_migrated += outcome->migrated_away;
    // Telemetry exports cleanly for each upgrade.
    const std::string json = TransplantReportToJson(outcome->report);
    EXPECT_NE(json.find("inplace_transplant"), std::string::npos);
    EXPECT_EQ(nova_.driver(host).hypervisor_kind(), HypervisorKind::kKvm);
  }
  // The six capable tenants each rode exactly one micro-reboot; the three
  // legacy tenants were live-migrated, possibly several times as successive
  // hosts went down (the same cascading Fig. 13 exhibits).
  EXPECT_EQ(total_transplanted, 6);
  EXPECT_GE(total_migrated, 3);

  // Every tenant's self-referential guest structures verify post-upgrade.
  for (uint64_t uid : uids) {
    VerifyInstance(uid);
  }

  // The patch ships: transplant the whole fleet back to Xen.
  for (size_t host = 0; host < nova_.host_count(); ++host) {
    auto outcome = nova_.HostLiveUpgrade(host, HypervisorKind::kXen, NetworkLink{10.0});
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(nova_.driver(host).hypervisor_kind(), HypervisorKind::kXen);
  }
  for (uint64_t uid : uids) {
    VerifyInstance(uid);
  }
}

TEST_F(DatacenterTest, ColdMigrateMovesPinnedInstance) {
  const uint64_t uid = BootWithImage("pinned", true);
  const size_t origin = nova_.GetInstance(uid).value()->host;
  const size_t dest = (origin + 1) % nova_.host_count();

  ASSERT_TRUE(nova_.ColdMigrate(uid, dest).ok());
  EXPECT_EQ(nova_.GetInstance(uid).value()->host, dest);
  VerifyInstance(uid);
  // Running again after the restore.
  const NovaInstance* inst = nova_.GetInstance(uid).value();
  EXPECT_EQ(nova_.driver(dest).GetInstance(inst->vm_id)->run_state, VmRunState::kRunning);

  // Guard rails.
  EXPECT_FALSE(nova_.ColdMigrate(uid, dest).ok());       // Already there.
  EXPECT_FALSE(nova_.ColdMigrate(999999, origin).ok());  // No such instance.
}

TEST_F(DatacenterTest, MixedUpgradeAndColdMigrationKeepInventoryConsistent) {
  std::vector<uint64_t> uids;
  for (int i = 0; i < 6; ++i) {
    uids.push_back(BootWithImage("mix-" + std::to_string(i), true));
  }
  // Shuffle one instance around, then upgrade its host.
  const uint64_t wanderer = uids[0];
  const size_t origin = nova_.GetInstance(wanderer).value()->host;
  const size_t dest = (origin + 1) % nova_.host_count();
  ASSERT_TRUE(nova_.ColdMigrate(wanderer, dest).ok());
  auto outcome = nova_.HostLiveUpgrade(dest, HypervisorKind::kKvm, NetworkLink{10.0});
  ASSERT_TRUE(outcome.ok());

  for (uint64_t uid : uids) {
    VerifyInstance(uid);
  }
}

}  // namespace
}  // namespace hypertp
