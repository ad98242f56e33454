/**
 * @file
 * Helpers shared by several test binaries: a small recording config, a
 * one-kernel workload, a grouped dataset, model accuracy, and readers
 * for counters, files, run reports and the HTTP endpoints.
 */

#ifndef PSCA_TESTS_TEST_UTIL_HH
#define PSCA_TESTS_TEST_UTIL_HH

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "core/builder.hh"
#include "ml/dataset.hh"
#include "ml/model.hh"
#include "obs/stats.hh"
#include "trace/generator.hh"
#include "trace/genome.hh"

namespace psca::test {

/** 10k-instruction intervals after a 20k warmup, recording @p counters. */
inline BuildConfig
smallConfig(std::initializer_list<Ctr> counters)
{
    BuildConfig cfg;
    cfg.intervalInstr = 10000;
    cfg.warmupInstr = 20000;
    for (const Ctr c : counters)
        cfg.counterIds.push_back(CounterRegistry::index(c));
    return cfg;
}

/** @p len instructions of kernel @p kp alone, from genome @p seed. */
inline Workload
kernelWorkload(KernelParams kp, uint64_t len, const char *name,
               uint64_t seed)
{
    AppGenome g;
    g.name = name;
    g.seed = seed;
    PhaseSpec p;
    p.kernel = kp;
    p.meanLenInstr = 1e9;
    g.phases = {p};
    Workload w;
    w.genome = g;
    w.inputSeed = 1;
    w.lengthInstr = len;
    w.name = name;
    return w;
}

/**
 * @p apps x @p per_app samples of three Gaussian features, labelled by
 * the sign of the first two's sum; app a's traces are a*10 + i%3.
 */
inline Dataset
groupedData(size_t apps, size_t per_app, uint64_t seed)
{
    Rng rng(seed);
    Dataset d;
    d.numFeatures = 3;
    for (size_t a = 0; a < apps; ++a) {
        for (size_t i = 0; i < per_app; ++i) {
            float row[3];
            for (auto &v : row)
                v = static_cast<float>(rng.gaussian());
            d.addSample(row, row[0] + row[1] > 0 ? 1 : 0,
                        static_cast<uint32_t>(a),
                        static_cast<uint32_t>(a * 10 + i % 3));
        }
    }
    return d;
}

/** The share of @p d's samples @p m labels right. */
inline double
accuracy(const Model &m, const Dataset &d)
{
    size_t correct = 0;
    for (size_t i = 0; i < d.numSamples(); ++i)
        correct += m.predict(d.row(i)) == (d.y[i] != 0) ? 1 : 0;
    return static_cast<double>(correct) /
        static_cast<double>(d.numSamples());
}

/** The value of counter @p name; 0 if nothing created it. */
inline uint64_t
counterValue(const char *name)
{
    const obs::Counter *c =
        obs::StatRegistry::instance().findCounter(name);
    return c ? c->value() : 0;
}

/** Every byte of the file at @p path (none if it cannot be read). */
inline std::vector<char>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
}

/** Pull one "name": value number out of a run-report JSON file. */
inline double
reportValue(const std::string &path, const std::string &name)
{
    const std::vector<char> bytes = slurp(path);
    const std::string text(bytes.begin(), bytes.end());
    const std::string key = "\"" + name + "\":";
    const size_t at = text.find(key);
    if (at == std::string::npos)
        return -1.0;
    return std::strtod(text.c_str() + at + key.size(), nullptr);
}

/** All files in @p dir whose names contain @p needle, sorted. */
inline std::vector<std::string>
filesContaining(const std::string &dir, const std::string &needle)
{
    std::vector<std::string> names;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        if (e.path().filename().string().find(needle) !=
            std::string::npos)
            names.push_back(e.path().filename().string());
    std::sort(names.begin(), names.end());
    return names;
}

/** One blocking HTTP exchange against 127.0.0.1:port. */
inline std::string
httpRequest(int port, const std::string &request_head)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return "";
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0)
    {
        ::close(fd);
        return "";
    }
    ::send(fd, request_head.data(), request_head.size(), 0);
    std::string resp;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
        resp.append(buf, static_cast<size_t>(n));
    ::close(fd);
    return resp;
}

/** One blocking HTTP GET of @p path against 127.0.0.1:port. */
inline std::string
httpGet(int port, const std::string &path)
{
    return httpRequest(port, "GET " + path + " HTTP/1.0\r\n\r\n");
}

} // namespace psca::test

#endif // PSCA_TESTS_TEST_UTIL_HH
