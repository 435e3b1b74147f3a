// Custom model: define your own (branchy) network with GraphBuilder, plan
// it, export the plan to JSON, re-load it, and hand it to the cluster
// simulator — the full user workflow on a model that is not in the zoo.
#include <iostream>

#include "core/planner.h"
#include "models/graph.h"
#include "net/network_model.h"
#include "runtime/cluster.h"

namespace {

// A small two-tower network: a conv trunk that splits into a "detail" tower
// and a cheap pooled tower, then fuses and classifies. The skewed towers
// give the burst-parallel planner something interesting to do.
deeppool::models::ModelGraph build_two_tower() {
  using namespace deeppool::models;
  GraphBuilder b("two_tower", Shape{3, 128, 128});
  b.conv2d("trunk1", 32, 3, 1, 1);
  const LayerId trunk = b.conv2d("trunk2", 64, 3, 2, 1);

  LayerId detail = b.conv2d("detail1", 128, 3, 1, 1, trunk);
  detail = b.conv2d("detail2", 128, 3, 1, 1, detail);
  detail = b.conv2d("detail3", 256, 3, 2, 1, detail);

  LayerId cheap = b.maxpool("cheap_pool", 2, 2, 0, trunk);
  cheap = b.conv2d("cheap1", 256, 1, 1, 0, cheap);

  const LayerId fused = b.add("fuse", detail, cheap);
  b.global_pool("gap", fused);
  b.dense("head", 256);
  b.dense("classifier", 100);
  return b.build();
}

}  // namespace

int main() {
  using namespace deeppool;
  try {
    const models::ModelGraph model = build_two_tower();
    std::cout << "Custom model '" << model.name() << "': " << model.op_count()
              << " ops, " << model.total_params() << " params, branchy="
              << (model.has_branches() ? "yes" : "no") << "\n\n";

    const models::CostModel cost{models::DeviceSpec::a100()};
    const net::NetworkModel network{net::NetworkSpec::nvswitch()};
    const core::ProfileSet profiles(model, cost, network,
                                    core::ProfileOptions{8, 64, true});
    const core::TrainingPlan plan = core::Planner(profiles).plan({1.5});
    std::cout << plan.to_table() << '\n';

    // Round-trip the plan through its JSON wire format, as a scheduler
    // receiving plans from users would parse it.
    const std::string wire = plan.to_json().dump();
    const core::TrainingPlan received =
        core::TrainingPlan::from_json(Json::parse(wire));
    std::cout << "JSON round-trip: " << wire.size() << " bytes, "
              << received.assignments.size() << " layer assignments, est "
              << received.est_iteration_s * 1e6 << " us/iteration\n\n";

    // Execute the received plan on the simulated cluster with a collocated
    // background copy of the same model.
    runtime::ScenarioConfig c;
    c.num_gpus = 8;
    c.fg_plan = received;
    c.collocate_bg = true;
    c.bg_batch = 8;
    const runtime::ScenarioResult r =
        runtime::run_scenario(model, model, cost, c);
    std::cout << "Simulated on 8 GPUs: FG " << r.fg_throughput
              << " samples/s (speedup " << r.fg_speedup << "x), BG "
              << r.bg_throughput << " samples/s, SM utilization "
              << r.sm_utilization * 100 << "%\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
