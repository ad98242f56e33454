/**
 * @file
 * Tests for the embedded live-stats HTTP endpoint (obs/http.hh): an
 * ephemeral-port server answers /stats.json, /events, /phases, and
 * the index with well-formed JSON, rejects unknown paths and non-GET
 * methods, and stops cleanly (including restart).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "common/logging.hh"
#include "obs/http.hh"
#include "obs/phase.hh"
#include "obs/stats.hh"
#include "test_util.hh"

using namespace psca;
using namespace psca::test;
using obs::HttpServer;

TEST(HttpEndpoint, ServesLiveTelemetry)
{
    // Give the live views something to show.
    obs::StatRegistry::instance().counter("http_test.counter").add(3);
    emitEvent("http_test", LogLevel::Info, "endpoint test event");

    HttpServer &server = HttpServer::instance();
    ASSERT_TRUE(server.start(0)); // ephemeral port
    const int port = server.port();
    ASSERT_GT(port, 0);
    EXPECT_TRUE(server.running());

    {
        // An open scope while we query /phases: the live view lists it.
        obs::ScopedPhase phase("http_test.live_scope");

        const std::string stats = httpGet(port, "/stats.json");
        EXPECT_NE(stats.find("HTTP/1.0 200 OK"), std::string::npos);
        EXPECT_NE(stats.find("Content-Type: application/json"),
                  std::string::npos);
        EXPECT_NE(stats.find("\"report\": \"live\""),
                  std::string::npos);
        EXPECT_NE(stats.find("\"http_test.counter\": 3"),
                  std::string::npos);

        const std::string events = httpGet(port, "/events");
        EXPECT_NE(events.find("200 OK"), std::string::npos);
        EXPECT_NE(events.find("\"report\": \"events\""),
                  std::string::npos);
        EXPECT_NE(events.find("endpoint test event"),
                  std::string::npos);

        const std::string phases = httpGet(port, "/phases");
        EXPECT_NE(phases.find("200 OK"), std::string::npos);
        EXPECT_NE(phases.find("\"report\": \"phases\""),
                  std::string::npos);
        EXPECT_NE(phases.find("\"open\": ["), std::string::npos);
        EXPECT_NE(phases.find("http_test.live_scope"),
                  std::string::npos);
    }

    const std::string index = httpGet(port, "/");
    EXPECT_NE(index.find("/stats.json"), std::string::npos);

    const std::string missing = httpGet(port, "/nope");
    EXPECT_NE(missing.find("404 Not Found"), std::string::npos);

    const std::string post =
        httpRequest(port, "POST /stats.json HTTP/1.0\r\n\r\n");
    EXPECT_NE(post.find("405 Method Not Allowed"), std::string::npos);

    // Requests were counted (registered only while the endpoint is on).
    const auto *requests = obs::StatRegistry::instance().findCounter(
        "http.requests");
    ASSERT_NE(requests, nullptr);
    EXPECT_GE(requests->value(), 6u);

    server.stop();
    EXPECT_FALSE(server.running());
    EXPECT_EQ(server.port(), 0);
}

TEST(HttpEndpoint, RestartAfterStop)
{
    HttpServer &server = HttpServer::instance();
    ASSERT_TRUE(server.start(0));
    const int port = server.port();
    EXPECT_NE(httpGet(port, "/").find("200 OK"), std::string::npos);
    // Starting twice fails loudly instead of double-binding.
    EXPECT_FALSE(server.start(0));
    server.stop();
    server.stop(); // idempotent
}

TEST(HttpEndpoint, BadBindAddressFails)
{
    HttpServer &server = HttpServer::instance();
    EXPECT_FALSE(server.start(0, "not-an-address"));
    EXPECT_FALSE(server.running());
}
