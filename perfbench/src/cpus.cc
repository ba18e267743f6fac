#include "cpus.h"

#include <sched.h>

namespace perfbench {

namespace {

bool placed = false;
cpu_set_t other_cpus;
cpu_set_t serving_cpu;

void SetCpus(const cpu_set_t& cpus) {
  if (placed) sched_setaffinity(0, sizeof(cpus), &cpus);
}

}  // namespace

int PinToServingCpu() {
  cpu_set_t all;
  if (sched_getaffinity(0, sizeof(all), &all) != 0) return -1;
  int cpu = CPU_SETSIZE - 1;
  while (cpu >= 0 && !CPU_ISSET(cpu, &all)) --cpu;
  if (cpu < 0) return -1;
  CPU_ZERO(&serving_cpu);
  CPU_SET(cpu, &serving_cpu);
  other_cpus = all;
  if (CPU_COUNT(&all) > 1) CPU_CLR(cpu, &other_cpus);
  if (sched_setaffinity(0, sizeof(serving_cpu), &serving_cpu) != 0) {
    return -1;
  }
  placed = true;
  return cpu;
}

OtherCpus::OtherCpus() { SetCpus(other_cpus); }

OtherCpus::~OtherCpus() { SetCpus(serving_cpu); }

}  // namespace perfbench
