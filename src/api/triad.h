/// \file
/// Umbrella header: the public front door of the triad library.
///
/// ```cpp
/// #include "api/triad.h"
///
/// using namespace triad;
/// Dataset data = make_dataset("cora", rng);
/// api::Model model = api::Engine({.strategy = ours()})
///                        .compile(std::make_shared<api::Gcn>(cfg));
/// Trainer t = model.trainer(data);
/// ```
///
/// Pulls in the typed builder surface (Value/GraphBuilder, Module, the stock
/// modules, Engine) plus the execution-facing pieces an application touches:
/// datasets and graph generators, strategies, the Trainer, the serving
/// runtime, and the perf-counter/memory reporting utilities. IR internals
/// (ir/passes/*, engine/vm.h, …) stay private — include them explicitly if
/// you are extending the compiler rather than using it.
#pragma once

#include "api/engine.h"
#include "api/models.h"
#include "api/module.h"
#include "api/value.h"
#include "baselines/plan_cache.h"
#include "baselines/strategy.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/knn.h"
#include "models/trainer.h"
#include "serve/host.h"
#include "support/counters.h"
