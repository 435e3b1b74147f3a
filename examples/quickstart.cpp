// Quickstart: plan a burst-parallel training job and inspect the result.
//
//   ./quickstart [model] [gpus] [global_batch] [amp_limit]
//
// Builds the model from the zoo, profiles it on the simulated A100 +
// NVSwitch testbed, runs the burst-parallel planner, and prints the
// per-layer plan plus its JSON wire format (the form `deeppool plan` prints
// and the paper's Fig. 6 coordinator consumes).
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/planner.h"
#include "models/zoo.h"
#include "net/network_model.h"

int main(int argc, char** argv) {
  using namespace deeppool;
  const std::string model_name = argc > 1 ? argv[1] : "vgg16";
  const int gpus = argc > 2 ? std::atoi(argv[2]) : 8;
  const std::int64_t batch = argc > 3 ? std::atoll(argv[3]) : 32;
  const double amp_limit = argc > 4 ? std::atof(argv[4]) : 1.5;

  try {
    const models::ModelGraph model = models::zoo::by_name(model_name);
    const models::CostModel cost{models::DeviceSpec::a100()};
    const net::NetworkModel network{net::NetworkSpec::nvswitch()};
    const core::ProfileSet profiles(model, cost, network,
                                    core::ProfileOptions{gpus, batch, true});

    const core::TrainingPlan dp = core::data_parallel_plan(profiles, gpus);
    const core::TrainingPlan bp = core::Planner(profiles).plan({amp_limit});

    std::cout << "Model: " << model.name() << "  (" << model.op_count()
              << " ops, " << model.total_params() / 1000000 << "M params)\n";
    std::cout << "Cluster: " << gpus << " GPUs, global batch " << batch
              << ", amplification limit " << amp_limit << "\n\n";
    std::cout << bp.to_table() << '\n';

    auto report = [](const char* name, const core::TrainingPlan& p) {
      std::cout << name << ": iteration "
                << p.est_iteration_s * 1e6 << " us, speedup vs 1 GPU "
                << p.est_speedup() << "x, GPU-sec amplification "
                << p.amplification() << "\n";
    };
    report("Data parallel  ", dp);
    report("Burst parallel ", bp);

    std::cout << "\nTraining plan JSON (the planner's wire format):\n"
              << bp.to_json().dump(2) << '\n';
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
