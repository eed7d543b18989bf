#ifndef WEBEVO_TOOLS_CLI_FLAGS_H_
#define WEBEVO_TOOLS_CLI_FLAGS_H_

// The web and crawler-shape flags webevo_sim and webevo_query share. A
// value they do not know exits with code 2 and names the valid ones.

#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string>

#include "crawler/update_module.h"
#include "simweb/web_config.h"
#include "util/flags.h"

namespace webevo::tools {

/// Prints `st` and exits with code 2 unless it is ok.
inline void ExitUnlessOk(const Status& st) {
  if (st.ok()) return;
  std::printf("%s\n", st.ToString().c_str());
  std::exit(2);
}

/// The simulated web of --seed, --scale, --faults and --adversarial.
/// A checkpoint must be read against the web it was written on, so
/// all four are shape flags for webevo_query.
inline simweb::WebConfig WebFromFlags(const FlagParser& flags) {
  simweb::WebConfig config =
      simweb::WebConfig().Scaled(flags.GetDouble("scale", 0.15));
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 19990217));
  config.max_site_size = 250;
  ExitUnlessOk(simweb::ApplyFaultScenario(flags.GetString("faults", "none"),
                                          &config));
  ExitUnlessOk(simweb::ApplyAdversarialScenario(
      flags.GetString("adversarial", "none"), &config));
  // --scale can ask for more sites than a PageId can address.
  ExitUnlessOk(config.Validate());
  return config;
}

/// The value of --<name>, `fallback` when unset. It must be one of
/// `valid`; anything else exits with code 2 naming the valid values.
inline std::string OneOfFromFlags(const FlagParser& flags,
                                  const std::string& name,
                                  const std::string& fallback,
                                  std::initializer_list<const char*> valid) {
  const std::string value = flags.GetString(name, fallback);
  std::string names;
  for (const char* v : valid) {
    if (value == v) return value;
    names += std::string(names.empty() ? "" : "|") + v;
  }
  std::printf("unknown --%s value '%s' (%s)\n", name.c_str(), value.c_str(),
              names.c_str());
  std::exit(2);
}

/// --crawler: "incremental" (the default) or "periodic".
inline std::string CrawlerFromFlags(const FlagParser& flags) {
  return OneOfFromFlags(flags, "crawler", "incremental",
                        {"incremental", "periodic"});
}

/// --policy and --estimator, the incremental crawler's revisit flags.
inline void UpdateFromFlags(const FlagParser& flags,
                            crawler::UpdateModuleConfig* update) {
  auto policy =
      crawler::ParseRevisitPolicy(flags.GetString("policy", "optimal"));
  ExitUnlessOk(policy.status());
  auto kind = estimator::ParseEstimatorKind(flags.GetString("estimator", "EB"));
  ExitUnlessOk(kind.status());
  update->policy = *policy;
  update->estimator_kind = *kind;
}

}  // namespace webevo::tools

#endif  // WEBEVO_TOOLS_CLI_FLAGS_H_
