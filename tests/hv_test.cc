// Unit tests for src/hv: guest address space, device models, configs, vCPU
// runqueues.

#include <gtest/gtest.h>

#include "src/hv/devices.h"
#include "src/hv/guest_memory.h"
#include "src/hv/hypervisor.h"
#include "src/hv/vcpu_runqueues.h"

namespace hypertp {
namespace {

constexpr FrameOwner kGuest{FrameOwnerKind::kGuest, 1};

TEST(GuestAddressSpaceTest, MapAndTranslate) {
  GuestAddressSpace space;
  ASSERT_TRUE(space.MapExtent(0, 100, 10).ok());
  ASSERT_TRUE(space.MapExtent(10, 500, 5).ok());
  EXPECT_EQ(space.Translate(0).value(), 100u);
  EXPECT_EQ(space.Translate(9).value(), 109u);
  EXPECT_EQ(space.Translate(12).value(), 502u);
  EXPECT_FALSE(space.Translate(15).ok());
  EXPECT_EQ(space.mapped_frames(), 15u);
}

TEST(GuestAddressSpaceTest, ContiguousExtentsMerge) {
  GuestAddressSpace space;
  ASSERT_TRUE(space.MapExtent(0, 100, 10).ok());
  ASSERT_TRUE(space.MapExtent(10, 110, 10).ok());
  EXPECT_EQ(space.mappings().size(), 1u);
  EXPECT_EQ(space.mappings()[0].frames, 20u);
}

TEST(GuestAddressSpaceTest, OutOfOrderRejected) {
  GuestAddressSpace space;
  ASSERT_TRUE(space.MapExtent(10, 100, 5).ok());
  EXPECT_FALSE(space.MapExtent(5, 200, 5).ok());   // Before previous.
  EXPECT_FALSE(space.MapExtent(12, 200, 5).ok());  // Overlapping.
}

TEST(GuestAddressSpaceTest, ReadWriteThroughRam) {
  PhysicalMemory ram(1 << 20);
  Mfn base = ram.Alloc(8, 1, kGuest).value();
  GuestAddressSpace space;
  ASSERT_TRUE(space.MapExtent(0, base, 8).ok());
  ASSERT_TRUE(space.Write(ram, 3, 0xABCD).ok());
  EXPECT_EQ(space.Read(ram, 3).value(), 0xABCDu);
  EXPECT_EQ(ram.ReadWord(base + 3).value(), 0xABCDu);
}

TEST(GuestAddressSpaceTest, DirtyLogging) {
  PhysicalMemory ram(1 << 20);
  Mfn base = ram.Alloc(16, 1, kGuest).value();
  GuestAddressSpace space;
  ASSERT_TRUE(space.MapExtent(0, base, 16).ok());

  // Writes before logging is enabled are not tracked.
  ASSERT_TRUE(space.Write(ram, 0, 1).ok());
  space.EnableDirtyLog();
  ASSERT_TRUE(space.Write(ram, 5, 2).ok());
  ASSERT_TRUE(space.Write(ram, 3, 3).ok());
  ASSERT_TRUE(space.Write(ram, 5, 4).ok());  // Same page twice.
  ASSERT_TRUE(space.MarkDirty(7).ok());

  auto dirty = space.FetchAndClearDirty();
  EXPECT_EQ(dirty, (std::vector<Gfn>{3, 5, 7}));
  EXPECT_TRUE(space.FetchAndClearDirty().empty());

  space.DisableDirtyLog();
  ASSERT_TRUE(space.Write(ram, 9, 5).ok());
  EXPECT_EQ(space.dirty_count(), 0u);
}

TEST(DevicesTest, VirtioNetRoundTrip) {
  VirtioNetState s;
  s.mac = {1, 2, 3, 4, 5, 6};
  s.features = 0x13;
  s.tx_used_idx = 42;
  s.link_up = false;
  auto decoded = VirtioNetState::FromBytes(s.ToBytes());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, s);
}

TEST(DevicesTest, VirtioBlkRoundTrip) {
  VirtioBlkState s;
  s.capacity_sectors = 1 << 30;
  s.requests_inflight = 3;
  auto decoded = VirtioBlkState::FromBytes(s.ToBytes());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, s);
}

TEST(DevicesTest, UartRoundTrip) {
  Uart16550State s;
  s.lcr = 0x80;
  s.scr = 0x55;
  auto decoded = Uart16550State::FromBytes(s.ToBytes());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, s);
}

TEST(DevicesTest, PassthroughRoundTrip) {
  PassthroughState s;
  s.pci_bdf = 0x0402;
  s.paused = true;
  auto decoded = PassthroughState::FromBytes(s.ToBytes());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, s);
}

TEST(DevicesTest, WrongTagRejected) {
  VirtioNetState net;
  auto blk = VirtioBlkState::FromBytes(net.ToBytes());
  ASSERT_FALSE(blk.ok());
  EXPECT_EQ(blk.error().code(), ErrorCode::kDataLoss);
}

TEST(DevicesTest, DefaultStatesDeterministic) {
  auto a = MakeDefaultDeviceState("virtio-net", 0, 7, DeviceAttachMode::kUnplugged);
  auto b = MakeDefaultDeviceState("virtio-net", 0, 7, DeviceAttachMode::kUnplugged);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
  auto c = MakeDefaultDeviceState("virtio-net", 0, 8, DeviceAttachMode::kUnplugged);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a->opaque, c->opaque);  // Different VM, different MAC.
}

TEST(DevicesTest, UnknownModelRejected) {
  EXPECT_FALSE(MakeDefaultDeviceState("floppy", 0, 1, DeviceAttachMode::kEmulated).ok());
  EXPECT_FALSE(IsKnownDeviceModel("floppy"));
  EXPECT_TRUE(IsKnownDeviceModel("virtio-blk"));
}

TEST(DevicesTest, TransplantValidation) {
  // Busy virtio-blk must be rejected.
  VirtioBlkState blk;
  blk.requests_inflight = 2;
  UisrDeviceState dev{"virtio-blk", 0, DeviceAttachMode::kEmulated, blk.ToBytes()};
  auto busy = ValidateDeviceForTransplant(dev);
  ASSERT_FALSE(busy.ok());
  EXPECT_EQ(busy.error().code(), ErrorCode::kFailedPrecondition);

  // Unpaused pass-through must be rejected.
  PassthroughState pt;
  pt.paused = false;
  UisrDeviceState ptdev{"nvme-pt", 0, DeviceAttachMode::kPassthrough, pt.ToBytes()};
  EXPECT_FALSE(ValidateDeviceForTransplant(ptdev).ok());

  // PrepareDevicesForTransplant fixes both.
  std::vector<UisrDeviceState> devices{dev, ptdev};
  ASSERT_TRUE(PrepareDevicesForTransplant(devices).ok());
  EXPECT_TRUE(ValidateDeviceForTransplant(devices[0]).ok());
  EXPECT_TRUE(ValidateDeviceForTransplant(devices[1]).ok());
}

TEST(DevicesTest, UnplugResetsQueuesKeepsMac) {
  auto dev = MakeDefaultDeviceState("virtio-net", 0, 9, DeviceAttachMode::kUnplugged);
  ASSERT_TRUE(dev.ok());
  VirtioNetState before = VirtioNetState::FromBytes(dev->opaque).value();
  // Simulate traffic.
  VirtioNetState busy = before;
  busy.tx_avail_idx = 100;
  busy.rx_used_idx = 50;
  dev->opaque = busy.ToBytes();

  std::vector<UisrDeviceState> devices{*dev};
  ASSERT_TRUE(PrepareDevicesForTransplant(devices).ok());
  VirtioNetState after = VirtioNetState::FromBytes(devices[0].opaque).value();
  EXPECT_EQ(after.mac, before.mac);  // Configuration survives.
  EXPECT_EQ(after.tx_avail_idx, 0);  // Queue state does not.
  EXPECT_FALSE(after.link_up);
}

TEST(VmConfigTest, SmallMatchesPaperBaseline) {
  VmConfig config = VmConfig::Small("vm");
  EXPECT_EQ(config.vcpus, 1u);
  EXPECT_EQ(config.memory_bytes, 1ull << 30);
  EXPECT_TRUE(config.huge_pages);
  EXPECT_EQ(config.devices.size(), 3u);
}

TEST(VmUidTest, MonotonicAndUnique) {
  uint64_t a = AllocateVmUid();
  uint64_t b = AllocateVmUid();
  EXPECT_LT(a, b);
}

TEST(VcpuRunqueuesTest, PlacesOnShortestQueueAndRemovesByUid) {
  // Each vCPU lands on the first shortest queue, in vCPU order.
  VcpuRunqueues rq(2);
  rq.AddVm(1, 2);
  rq.AddVm(2, 1);
  ASSERT_EQ(rq.queues().size(), 2u);
  EXPECT_EQ(rq.queues()[0], (std::vector<QueuedVcpu>{{1, 0}, {2, 0}}));
  EXPECT_EQ(rq.queues()[1], (std::vector<QueuedVcpu>{{1, 1}}));

  // Removing a VM drops all of its vCPUs and nothing else.
  rq.RemoveVm(1);
  EXPECT_EQ(rq.vcpu_count(), 1u);
  EXPECT_EQ(rq.queues()[0], (std::vector<QueuedVcpu>{{2, 0}}));
  rq.RemoveVm(99);
  EXPECT_EQ(rq.vcpu_count(), 1u);

  // Clear keeps the queues; a host never has fewer than one.
  rq.Clear();
  EXPECT_EQ(rq.vcpu_count(), 0u);
  EXPECT_EQ(rq.queues().size(), 2u);
  EXPECT_EQ(VcpuRunqueues(0).queues().size(), 1u);
}

}  // namespace
}  // namespace hypertp
