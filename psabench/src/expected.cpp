#include "expected.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "apps/apps.hpp"
#include "proc.hpp"
#include "support/json.hpp"

namespace psabench {

namespace fs = std::filesystem;
namespace json = psaflow::json;

namespace {

std::optional<std::string> read_file(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return std::nullopt;
    return std::string(std::istreambuf_iterator<char>(in), {});
}

std::uint64_t as_count(const json::Value* v) {
    return v == nullptr ? 0 : std::uint64_t(v->number_or(0.0));
}

} // namespace

std::string digest(std::string_view bytes) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%016llx-%zu",
                  static_cast<unsigned long long>(h), bytes.size());
    return buf;
}

std::optional<Expected> load_expected(const std::string& path,
                                      std::string* error) {
    const auto text = read_file(path);
    if (!text.has_value()) {
        *error = "cannot read " + path;
        return std::nullopt;
    }
    const auto doc = json::parse(*text, error);
    if (!doc.has_value()) return std::nullopt;

    Expected expected;
    if (const json::Value* shards = doc->find("shards")) {
        if (const json::Value* names = shards->find("names"))
            for (const json::Value& name : names->elements)
                expected.shards.push_back(name.string_or(""));
        if (const json::Value* reason = shards->find("reason"))
            expected.shard_reason = reason->string_or("");
    }
    const json::Value* keys = doc->find("keys");
    if (keys == nullptr || !keys->is_array() || keys->elements.empty()) {
        *error = path + ": no \"keys\"";
        return std::nullopt;
    }
    for (const json::Value& entry : keys->elements) {
        PoolKey key;
        if (const json::Value* app = entry.find("app"))
            key.app = app->string_or("");
        if (const json::Value* files = entry.find("files"))
            for (const auto& [name, value] : files->members)
                key.files[name] = value.string_or("");
        if (const json::Value* first = entry.find("first_compile")) {
            key.interp_runs = as_count(first->find("interp.runs"));
            key.cas_writes = as_count(first->find("cas.writes"));
        }
        if (key.app.empty() || key.files.empty() || key.interp_runs == 0 ||
            key.cas_writes == 0) {
            *error = path + ": incomplete key entry";
            return std::nullopt;
        }
        expected.keys.push_back(std::move(key));
    }
    if (expected.shards.size() < 2) {
        *error = path + ": routed_warm needs at least two shard names";
        return std::nullopt;
    }
    return expected;
}

std::optional<std::string>
check_sources(const PoolKey& key,
              const std::map<std::string, std::string>& files) {
    if (files.size() != key.files.size())
        return key.app + ": " + std::to_string(files.size()) +
               " design file(s), expected " +
               std::to_string(key.files.size());
    for (const auto& [name, content] : files) {
        auto it = key.files.find(name);
        if (it == key.files.end())
            return key.app + ": unexpected design file " + name;
        if (digest(content) != it->second)
            return key.app + ": " + name + " differs from the expected file";
    }
    return std::nullopt;
}

std::optional<std::string> check_files(const PoolKey& key,
                                       const std::string& dir,
                                       const std::vector<std::string>& names) {
    std::map<std::string, std::string> files;
    for (const std::string& name : names) {
        auto content = read_file(fs::path(dir) / name);
        if (!content.has_value())
            return key.app + ": cannot read " + name;
        files[name] = std::move(*content);
    }
    return check_sources(key, files);
}

std::optional<Expected> record_fresh(const std::string& psaflowc,
                                     const std::string& work_dir,
                                     std::string* error) {
    Expected expected;
    for (const psaflow::apps::Application* app :
         psaflow::apps::all_applications()) {
        const fs::path dir = fs::path(work_dir) / ("record-" + app->name);
        fs::remove_all(dir);
        fs::create_directories(dir);
        const fs::path out = dir / "out";
        const fs::path trace = dir / "trace.json";
        Child child;
        if (auto err = child.spawn({psaflowc, "--app", app->name, "--jobs",
                                    "1", "--cache-dir", (dir / "cas").string(),
                                    "--out", out.string(), "--trace-out",
                                    trace.string()},
                                   (dir / "psaflowc.log").string())) {
            *error = *err;
            return std::nullopt;
        }
        if (!exited_cleanly(child.wait(120000))) {
            *error = "psaflowc --app " + app->name + " failed; see " +
                     (dir / "psaflowc.log").string();
            return std::nullopt;
        }

        PoolKey key;
        key.app = app->name;
        for (const auto& entry : fs::directory_iterator(out)) {
            const std::string name = entry.path().filename().string();
            if (name.size() > 12 &&
                name.compare(name.size() - 12, 12, "-summary.csv") == 0)
                continue; // the run summary, not a design
            key.files[name] = digest(*read_file(entry.path()));
        }
        const auto trace_text = read_file(trace);
        const auto doc = trace_text.has_value()
                             ? json::parse(*trace_text)
                             : std::optional<json::Value>{};
        const json::Value* counters =
            doc.has_value() ? doc->find("counters") : nullptr;
        if (counters == nullptr) {
            *error = "no counters in " + trace.string();
            return std::nullopt;
        }
        key.interp_runs = as_count(counters->find("interp.runs"));
        key.cas_writes = as_count(counters->find("cas.writes"));
        expected.keys.push_back(std::move(key));
        fs::remove_all(dir);
    }
    return expected;
}

std::string to_json_text(const Expected& expected) {
    std::ostringstream os;
    os << "{\n  \"about\": \"Design-file digests (FNV-1a 64, hex, then byte "
          "length) and first-compile counters per pool key, recorded from a "
          "fresh `psaflowc --app <app> --jobs 1` process with a fresh "
          "--cache-dir. Re-check with `python3 psabench/run.py "
          "--check-expected`.\",\n";
    json::Value names = json::Value::array();
    for (const std::string& name : expected.shards)
        names.push(json::Value::string(name));
    os << "  \"shards\": {\"names\": " << json::dump(names)
       << ", \"reason\": " << json::dump(json::Value::string(expected.shard_reason))
       << "},\n  \"keys\": [\n";
    for (std::size_t i = 0; i < expected.keys.size(); ++i) {
        const PoolKey& key = expected.keys[i];
        json::Value files = json::Value::object();
        for (const auto& [name, d] : key.files)
            files.set(name, json::Value::string(d));
        os << "    {\"app\": " << json::dump(json::Value::string(key.app))
           << ", \"files\": " << json::dump(files)
           << ",\n     \"first_compile\": {\"interp.runs\": "
           << key.interp_runs << ", \"cas.writes\": " << key.cas_writes
           << "}}" << (i + 1 < expected.keys.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    return os.str();
}

} // namespace psabench
