// Extension bench: GBO on a second architecture (binary ResNet-8).
//
// The paper claims GBO is "a more general solution to various network
// configurations" (contribution (2)) but evaluates only VGG9. This bench
// repeats the Table I protocol on a residual network, whose skip paths
// change the per-layer noise-sensitivity profile (the identity path
// bypasses the noisy MVM). Rows: Baseline / PLA-n / GBO at two noise
// operating points, plus a layer-sensitivity summary showing the profile
// GBO exploits — including whether the 1×1 projection convs (tiny fan-in,
// shortcut-critical) want longer or shorter codes than the 3×3 mains.
//
// This workload leans hardest on the blocked GEMM and its conv gathers;
// set GBO_NUM_THREADS to control the thread pool (results are bitwise
// identical at any thread count).
#include "common/logging.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"
#include "gbo/gbo.hpp"
#include "gbo/pla_schedule.hpp"
#include "models/resnet.hpp"

#include <cstdio>
#include <cstdlib>

using namespace gbo;

namespace {

double env_double(const char* name, double fallback) {
  if (const char* v = std::getenv(name); v && *v) return std::atof(v);
  return fallback;
}

std::size_t env_size(const char* name, std::size_t fallback) {
  if (const char* v = std::getenv(name); v && *v) {
    const long p = std::atol(v);
    if (p > 0) return static_cast<std::size_t>(p);
  }
  return fallback;
}

}  // namespace

int main() {
  // Same data/scale knobs as the VGG9 benches; the model differs.
  core::StandardConfig std_cfg = core::standard_config();
  models::ResNetConfig mcfg;
  mcfg.image_size = std_cfg.model.image_size;
  mcfg.width = std_cfg.model.width;
  mcfg.act_levels = std_cfg.model.act_levels;
  models::ResNet model = models::build_resnet(mcfg);

  data::Dataset train =
      data::make_synth_cifar(std_cfg.data, std_cfg.num_train, /*stream=*/0);
  data::Dataset test =
      data::make_synth_cifar(std_cfg.data, std_cfg.num_test, /*stream=*/1);

  core::PretrainConfig pcfg = std_cfg.pretrain;
  const float clean = core::load_or_pretrain(model, train, test, pcfg,
                                             std_cfg.data_fingerprint());
  std::printf("ResNet-8 clean accuracy: %.2f%% (%zu encoded layers)\n\n",
              100.0 * clean, model.encoded.size());

  Rng rng(909);
  xbar::LayerNoiseController ctrl(model.encoded, 0.0, model.base_pulses(),
                                  rng);

  // Calibrate σ to the mild/mid baseline operating points on this fan-in.
  const auto sigmas = core::calibrate_sigmas(
      *model.net, ctrl, test, {std_cfg.baseline_targets[0],
                               std_cfg.baseline_targets[1]});
  ctrl.detach();

  // Layer sensitivity profile (Fig. 2 protocol on the residual topology).
  {
    Table sens({"target layer", "Acc. (%)"});
    const double sigma = sigmas.back() * 1.5;
    ctrl.attach();
    ctrl.set_sigma(sigma);
    ctrl.set_uniform_pulses(model.base_pulses());
    for (std::size_t l = 0; l < model.encoded.size(); ++l) {
      ctrl.isolate_layer(l);
      const float acc = core::evaluate_noisy(*model.net, ctrl, test, 2);
      sens.add_row({model.encoded_names[l], Table::fmt(100.0 * acc, 2)});
    }
    ctrl.detach();
    std::printf(
        "== Layer-wise sensitivity on ResNet-8 (noise at one layer) ==\n%s\n",
        sens.to_text().c_str());
    sens.write_csv("ext_resnet_sensitivity.csv");
  }

  Table table({"Method", "Noise sigma", "# pulses in each layer",
               "Avg.# pulses", "Acc. (%)"});
  const std::size_t n_layers = model.encoded.size();

  auto eval_schedule = [&](const std::string& method, double sigma,
                           const std::vector<std::size_t>& pulses) {
    ctrl.attach();
    ctrl.set_enabled_all(true);
    ctrl.set_sigma(sigma);
    ctrl.set_pulses(pulses);
    const float acc = core::evaluate_noisy(*model.net, ctrl, test, 3);
    ctrl.detach();
    const opt::PulseSchedule sched{pulses};
    table.add_row({method, Table::fmt(sigma, 2), sched.to_string(),
                   Table::fmt(sched.average(), 2),
                   Table::fmt(100.0 * acc, 2)});
  };

  const std::size_t gbo_epochs = env_size("GBO_GBO_EPOCHS", 4);
  for (double sigma : sigmas) {
    eval_schedule("Baseline", sigma, std::vector<std::size_t>(n_layers, 8));
    for (std::size_t n : {10u, 14u, 16u})
      eval_schedule("PLA" + std::to_string(n), sigma,
                    std::vector<std::size_t>(n_layers, n));

    opt::GboConfig gcfg;
    gcfg.sigma = sigma;
    gcfg.gamma = env_double("GBO_GAMMA_SHORT", 2e-3);
    gcfg.epochs = gbo_epochs;
    gcfg.lr = static_cast<float>(env_double("GBO_GBO_LR", 5e-3));
    opt::GboTrainer trainer(*model.net, model.encoded, gcfg);
    trainer.train(train);
    eval_schedule("GBO", sigma, trainer.selected_pulses());
    log_info("GBO at sigma=", sigma, " done");
  }

  std::printf("== Extension: Table I protocol on binary ResNet-8 ==\n%s\n",
              table.to_text().c_str());
  table.write_csv("ext_resnet.csv");
  std::printf("Rows written to ext_resnet.csv and ext_resnet_sensitivity.csv\n");
  return 0;
}
