// CPU placement of a run. Serving (the client, the server's threads and
// the traced replay) runs on one CPU: in a closed loop at most one of
// them is busy at a time, and on a shared VM a wakeup on another, idle
// vCPU waits on the host's scheduler, whose delays would then make up
// the latency tail. Preparing runs on the other CPUs, so it leaves the
// serving CPU's private caches to the server, and a parallel
// materializer still shows its gain.
#ifndef PERFBENCH_CPUS_H_
#define PERFBENCH_CPUS_H_

namespace perfbench {

// Records the CPUs the process may use and moves the calling thread to
// the highest of them, the serving CPU; threads it starts from then on
// inherit it. Returns the serving CPU, or -1 when the process cannot
// be placed (it then runs where the kernel puts it).
int PinToServingCpu();

// While alive, the calling thread runs on the CPUs recorded by
// PinToServingCpu() other than the serving CPU (on the serving CPU
// when there is no other); it returns to the serving CPU when this
// ends.
class OtherCpus {
 public:
  OtherCpus();
  ~OtherCpus();
  OtherCpus(const OtherCpus&) = delete;
  OtherCpus& operator=(const OtherCpus&) = delete;
};

}  // namespace perfbench

#endif  // PERFBENCH_CPUS_H_
