// Custom model walkthrough: bring your own architecture to GBO.
//
// Everything GBO needs from a network is (a) an nn::Sequential it can run
// and (b) the list of crossbar-encoded layers as quant::Hookable*. This
// example builds a residual network (models/resnet — a topology the paper
// never evaluated), pretrains it briefly, runs gradient-based bit-encoding
// optimization on it, and compares the discovered heterogeneous schedule
// against the uniform baseline under noise.
//
//   ./custom_model [--epochs 8] [--sigma-scale 1.0]
#include "common/cli.hpp"
#include "common/logging.hpp"
#include "common/table.hpp"
#include "core/pipeline.hpp"
#include "data/synth_cifar.hpp"
#include "gbo/gbo.hpp"
#include "gbo/pla_schedule.hpp"
#include "models/resnet.hpp"

#include <cstdio>

int main(int argc, char** argv) {
  using namespace gbo;
  set_log_level(LogLevel::kWarn);

  CliParser cli("custom_model", "GBO on a user-defined residual network.");
  cli.add_option("epochs", "Pretraining epochs", "8", CliParser::Value::kInt);
  cli.add_option("sigma-scale", "Noise level as a multiple of the auto pick",
                 "1.0", CliParser::Value::kNumber);
  if (!cli.parse(argc, argv)) return cli.exit_code();

  // 1. Your architecture. Any module graph works as long as the encoded
  //    layers are QuantConv2d/QuantLinear (or your own Hookable).
  models::ResNetConfig mcfg;
  mcfg.width = 8;
  mcfg.image_size = 16;
  models::ResNet model = models::build_resnet(mcfg);
  std::printf("ResNet-8: %zu crossbar-encoded layers:", model.encoded.size());
  for (const auto& name : model.encoded_names) std::printf(" %s", name.c_str());
  std::printf("\n");

  // 2. Data + quantization-aware pretraining (weights binary, activations
  //    9-level, exactly like the paper's setup).
  data::SynthCifarConfig dcfg;
  dcfg.image_size = 16;
  data::Dataset train = data::make_synth_cifar(dcfg, 1200, 0);
  data::Dataset test = data::make_synth_cifar(dcfg, 400, 1);
  core::PretrainConfig pcfg;
  pcfg.epochs = static_cast<std::size_t>(cli.get_int("epochs", 8));
  std::printf("Pre-training...\n");
  const auto stats =
      core::pretrain(*model.net, model.binary, train, test, pcfg);
  std::printf("clean test accuracy: %.2f%%\n\n", 100.0 * stats.test_acc);

  // 3. Pick a noise level that visibly hurts (calibrated to ~62% baseline).
  Rng rng(5);
  xbar::LayerNoiseController ctrl(model.encoded, 0.0, model.base_pulses(),
                                  rng);
  const auto sigmas =
      core::calibrate_sigmas(*model.net, ctrl, test, {0.62});
  ctrl.detach();
  const double sigma = sigmas.front() * cli.get_double("sigma-scale", 1.0);

  // 4. GBO: freeze the weights, learn per-layer pulse lengths.
  std::printf("Running GBO (lambda-only training) at sigma=%.2f...\n", sigma);
  opt::GboConfig gcfg;
  gcfg.sigma = sigma;
  gcfg.gamma = 2e-3;
  gcfg.epochs = 6;
  gcfg.lr = 5e-3f;
  opt::GboTrainer trainer(*model.net, model.encoded, gcfg);
  trainer.train(train);
  const auto schedule = trainer.selected_pulses();
  std::printf("selected schedule: %s (avg %.2f pulses)\n\n",
              opt::PulseSchedule{schedule}.to_string().c_str(),
              trainer.avg_selected_pulses());

  // 5. Compare under noise.
  Table table({"Configuration", "Avg.# pulses", "Acc. (%)"});
  auto eval = [&](const std::string& name,
                  const std::vector<std::size_t>& pulses) {
    ctrl.attach();
    ctrl.set_enabled_all(true);
    ctrl.set_sigma(sigma);
    ctrl.set_pulses(pulses);
    const float acc = core::evaluate_noisy(*model.net, ctrl, test, 3);
    ctrl.detach();
    table.add_row({name,
                   Table::fmt(opt::PulseSchedule{pulses}.average(), 2),
                   Table::fmt(100.0 * acc, 2)});
  };
  eval("baseline (uniform 8)",
       std::vector<std::size_t>(model.encoded.size(), 8));
  eval("GBO schedule", schedule);
  std::printf("%s\n", table.to_text().c_str());
  std::printf("GBO transfers to architectures the paper never tried —\n"
              "only the Hookable layer list changes.\n");
  return 0;
}
