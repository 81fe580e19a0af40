/**
 * @file
 * Fig. 16: linear-regression modeling of algorithmic
 * model-architecture components against pipeline bottlenecks. Data
 * points are the 8 models x batch sizes 1..16384 on Broadwell;
 * features are normalized so weight magnitude reads as impact.
 */

#include "bench_util.h"

using namespace recstack;
using namespace recstack::bench;

int
main()
{
    banner("Fig. 16", "Model-architecture features vs pipeline "
                      "bottlenecks (OLS)");

    SweepCache sweep(allPlatforms());
    const RegressionStudy study =
        runRegressionStudy(sweep, kBdw, paperBatchSizes());

    std::printf("observations: %zu (8 models x %zu batch sizes)\n\n",
                study.observations, paperBatchSizes().size());

    std::vector<std::string> headers = {"feature"};
    for (const auto& target : study.targetNames) {
        headers.push_back(target);
    }
    TextTable table(headers);
    for (size_t f = 0; f < study.featureNames.size(); ++f) {
        std::vector<std::string> row = {study.featureNames[f]};
        for (const auto& fit : study.fits) {
            row.push_back(TextTable::fmt(fit.weights[f], 3));
        }
        table.addRow(row);
    }
    std::vector<std::string> r2_row = {"(R^2)"};
    for (const auto& fit : study.fits) {
        r2_row.push_back(TextTable::fmt(fit.r2, 2));
    }
    table.addRow(r2_row);
    std::printf("%s", table.render().c_str());

    checkHeader();
    auto weight = [&](size_t target, const char* feature) {
        for (size_t f = 0; f < study.featureNames.size(); ++f) {
            if (study.featureNames[f] == feature) {
                return study.fits[target].weights[f];
            }
        }
        RECSTACK_FATAL("unknown feature " << feature);
    };
    // Target order: 0 retiring, 1 badspec, 2 frontend, 3 core, 4 mem.
    check(weight(1, "FCtoEmbRatio") < 0.0,
          "a high FC-to-embedding weight ratio correlates with LESS "
          "bad speculation (compute-heavy models have predictable "
          "branches)");

    // No bottleneck is explained by one dominant feature: the top
    // weight never carries more than ~2/3 of total magnitude.
    bool no_single = true;
    for (const auto& fit : study.fits) {
        double sum = 0.0, top = 0.0;
        for (double w : fit.weights) {
            sum += std::abs(w);
            top = std::max(top, std::abs(w));
        }
        no_single &= sum == 0.0 || top / sum < 0.67;
    }
    check(no_single, "no pipeline bottleneck is dominated by a single "
                     "algorithmic feature (the paper's headline "
                     "observation)");
    check(weight(4, "LookupsPerTable") > 0.0,
          "more lookups per table pushes the backend toward memory");
    return bench::exitStatus();
}
