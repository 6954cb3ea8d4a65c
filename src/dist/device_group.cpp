/// \file device_group.cpp
/// \brief Device construction and the stealing tile scheduler.

#include "dist/device_group.hpp"

#include <algorithm>

#include "dist/dist.hpp"
#include "telemetry/metrics.hpp"
#include "util/contracts.hpp"
#include "util/timer.hpp"

namespace spbla::dist {

DeviceGroup::DeviceGroup(std::size_t n_devices, std::size_t threads_per_device) {
    const std::size_t n = std::max<std::size_t>(n_devices, 1);
    devices_.reserve(n);
    for (std::size_t d = 0; d < n; ++d) {
        // A device with one lane computes on the driver thread that serves
        // it (Sequential context, no idle pool thread); more lanes get a
        // dedicated pool the kernels' parallel_for launches onto.
        if (threads_per_device <= 1) {
            devices_.push_back(
                std::make_unique<backend::Context>(backend::Policy::Sequential));
        } else {
            devices_.push_back(std::make_unique<backend::Context>(
                backend::Policy::Parallel, threads_per_device));
        }
    }
    busy_ns_ = std::make_unique<std::atomic<std::uint64_t>[]>(n);
    for (std::size_t d = 0; d < n; ++d) busy_ns_[d].store(0, std::memory_order_relaxed);
    if (n > 1) driver_ = std::make_unique<util::ThreadPool>(n);
}

void DeviceGroup::run(std::size_t n_tasks,
                      const std::function<std::size_t(std::size_t)>& owner,
                      const std::function<void(std::size_t, std::size_t)>& body) {
    if (n_tasks == 0) return;
    const std::size_t n_dev = size();

    // Per-device FIFO of task indices with an atomic claim cursor: the
    // device-granular analog of the pool's ticket scheduler. A cursor racing
    // past the queue end is harmless — the claimer just moves on.
    struct Queue {
        std::vector<std::size_t> tasks;
        std::atomic<std::size_t> head{0};
    };
    std::vector<Queue> queues(n_dev);
    for (std::size_t t = 0; t < n_tasks; ++t) {
        const std::size_t d = owner(t);
        SPBLA_ASSERT(d < n_dev, "DeviceGroup::run: owner out of range");
        queues[d].tasks.push_back(t);
    }

    auto serve = [&](std::size_t d) {
        auto execute = [&](std::size_t task, bool stolen) {
            // Charge thread CPU time, not wall time: driver threads are
            // multiplexed onto however many physical cores the host has, so
            // wall time would bill preemption gaps as device work and the
            // strong-scaling makespan model would read flat. Hosts without a
            // per-thread clock fall back to the wall stopwatch.
            const std::uint64_t cpu0 = util::thread_cpu_ns();
            util::Timer timer;
            body(task, d);
            const std::uint64_t cpu1 = util::thread_cpu_ns();
            busy_ns_[d].fetch_add(
                cpu1 > cpu0 ? cpu1 - cpu0
                            : static_cast<std::uint64_t>(timer.seconds() * 1e9),
                std::memory_order_relaxed);
            stats().tiles_processed.fetch_add(1, std::memory_order_relaxed);
            telemetry::count(telemetry::Counter::DistTilesProcessed);
            if (stolen) {
                stats().tile_steals.fetch_add(1, std::memory_order_relaxed);
                telemetry::count(telemetry::Counter::DistTileSteals);
            }
        };
        auto& own = queues[d];
        for (;;) {
            const std::size_t i = own.head.fetch_add(1, std::memory_order_relaxed);
            if (i >= own.tasks.size()) break;
            execute(own.tasks[i], false);
        }
        for (std::size_t off = 1; off < n_dev; ++off) {
            auto& victim = queues[(d + off) % n_dev];
            for (;;) {
                const std::size_t i =
                    victim.head.fetch_add(1, std::memory_order_relaxed);
                if (i >= victim.tasks.size()) break;
                execute(victim.tasks[i], true);
            }
        }
    };

    if (driver_ == nullptr) {
        serve(0);
        return;
    }
    driver_->run_dynamic(n_dev, serve);
}

std::vector<std::uint64_t> DeviceGroup::busy_ns() const {
    std::vector<std::uint64_t> out(size());
    for (std::size_t d = 0; d < size(); ++d)
        out[d] = busy_ns_[d].load(std::memory_order_relaxed);
    return out;
}

bool DeviceGroup::balanced() const noexcept {
    for (const auto& dev : devices_) {
        if (!dev->tracker().balanced()) return false;
    }
    return true;
}

std::string DeviceGroup::leak_report() const {
    std::string report;
    for (std::size_t d = 0; d < devices_.size(); ++d) {
        if (devices_[d]->tracker().balanced()) continue;
        report += "device " + std::to_string(d) + ": " +
                  devices_[d]->tracker().leak_report() + "\n";
    }
    return report;
}

}  // namespace spbla::dist
